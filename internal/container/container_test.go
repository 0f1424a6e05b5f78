package container

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

func TestCounterBasic(t *testing.T) {
	w := ygm.MustWorld(4, ygm.Options{})
	defer w.Close()
	c := NewCounter[uint64](w, serialize.Uint64Codec(), CounterOptions{})
	w.Parallel(func(r *ygm.Rank) {
		for k := 0; k < 100; k++ {
			c.Inc(r, uint64(k%10))
		}
		c.Barrier(r)
		total := c.GlobalTotal(r)
		if total != 400 {
			t.Errorf("total = %d, want 400", total)
		}
		if size := c.GlobalSize(r); size != 10 {
			t.Errorf("distinct = %d, want 10", size)
		}
		g := c.Gather(r)
		for k := uint64(0); k < 10; k++ {
			if g[k] != 40 {
				t.Errorf("key %d count = %d, want 40", k, g[k])
			}
		}
	})
}

func TestCounterCacheFlushThreshold(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	c := NewCounter[uint64](w, serialize.Uint64Codec(), CounterOptions{CacheEntries: 8})
	w.Parallel(func(r *ygm.Rank) {
		// Write more distinct keys than the cache holds; threshold flushes
		// must preserve exact totals.
		for k := 0; k < 1000; k++ {
			c.Add(r, uint64(k), 2)
		}
		c.Barrier(r)
		if total := c.GlobalTotal(r); total != 4000 {
			t.Errorf("total = %d, want 4000", total)
		}
		if size := c.GlobalSize(r); size != 1000 {
			t.Errorf("distinct = %d, want 1000", size)
		}
	})
}

func TestCounterStringKeys(t *testing.T) {
	w := ygm.MustWorld(3, ygm.Options{})
	defer w.Close()
	c := NewCounter[string](w, serialize.StringCodec(), CounterOptions{})
	w.Parallel(func(r *ygm.Rank) {
		c.Inc(r, "amazon.example")
		c.Inc(r, fmt.Sprintf("site%d.example", r.ID()))
		c.Barrier(r)
		g := c.Gather(r)
		if g["amazon.example"] != 3 {
			t.Errorf(`count["amazon.example"] = %d, want 3`, g["amazon.example"])
		}
		if g["site1.example"] != 1 {
			t.Errorf(`count["site1.example"] = %d, want 1`, g["site1.example"])
		}
	})
}

func TestCounterPairKeys(t *testing.T) {
	// The Alg. 4 use case: counting (open, close) bucket pairs.
	type bucketPair = serialize.Pair[int64, int64]
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	c := NewCounter[bucketPair](w, serialize.PairCodec(serialize.Int64Codec(), serialize.Int64Codec()), CounterOptions{})
	w.Parallel(func(r *ygm.Rank) {
		c.Inc(r, bucketPair{First: 3, Second: 7})
		c.Barrier(r)
		g := c.Gather(r)
		if g[bucketPair{First: 3, Second: 7}] != 2 {
			t.Errorf("pair count = %v", g)
		}
	})
}

func TestCounterReset(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	c := NewCounter[uint64](w, serialize.Uint64Codec(), CounterOptions{})
	w.Parallel(func(r *ygm.Rank) {
		c.Inc(r, 1)
		c.Barrier(r)
		c.Reset(r)
		if got := c.GlobalTotal(r); got != 0 {
			t.Errorf("total after reset = %d", got)
		}
		c.Inc(r, 2)
		c.Barrier(r)
		if got := c.GlobalTotal(r); got != 2 {
			t.Errorf("total after reuse = %d", got)
		}
	})
}

func TestCounterMatchesSequentialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		keys := 1 + rng.Intn(30)
		w := ygm.MustWorld(n, ygm.Options{})
		defer w.Close()
		c := NewCounter[uint64](w, serialize.Uint64Codec(), CounterOptions{CacheEntries: 1 + rng.Intn(16)})

		// Pre-generate per-rank increment scripts and a sequential reference.
		scripts := make([][][2]uint64, n)
		want := map[uint64]uint64{}
		for i := 0; i < n; i++ {
			ops := rng.Intn(300)
			for j := 0; j < ops; j++ {
				k, d := uint64(rng.Intn(keys)), uint64(1+rng.Intn(5))
				scripts[i] = append(scripts[i], [2]uint64{k, d})
				want[k] += d
			}
		}
		var got map[uint64]uint64
		w.Parallel(func(r *ygm.Rank) {
			for _, op := range scripts[r.ID()] {
				c.Add(r, op[0], op[1])
			}
			c.Barrier(r)
			if r.ID() == 0 {
				got = c.Gather(r)
			} else {
				c.Gather(r)
			}
		})
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestContainersShareWorldTraffic(t *testing.T) {
	// §4.1.4: counting-set flushes interleave with other message kinds on
	// the same world without interference.
	w := ygm.MustWorld(4, ygm.Options{BufferBytes: 64})
	defer w.Close()
	c := NewCounter[uint64](w, serialize.Uint64Codec(), CounterOptions{CacheEntries: 4})
	recv := make([]uint64, w.Size()) // plain-handler payloads received per rank
	h := w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		recv[r.ID()] += d.Uvarint()
	})
	w.Parallel(func(r *ygm.Rank) {
		for k := 0; k < 200; k++ {
			c.Inc(r, uint64(k%13))
			e := r.Begin((r.ID()+k)%r.Size(), h)
			e.PutUvarint(1)
			r.Commit(e)
		}
		c.Barrier(r)
		if got := c.GlobalTotal(r); got != 800 {
			t.Errorf("counter total = %d, want 800", got)
		}
		if got := ygm.AllReduceSum(r, recv[r.ID()]); got != 800 {
			t.Errorf("plain handler total = %d, want 800", got)
		}
	})
}
