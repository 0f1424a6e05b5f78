package core

import (
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

func randomEdges(seed int64, nv, ne int) [][2]uint64 {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]uint64, ne)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
	}
	return edges
}

// probeIDs registers n throwaway handlers, releases them in reverse, and
// returns the ids they got: with a constant registry they come out the
// same at any point in the world's life.
func probeIDs(w *ygm.World, n int) []ygm.HandlerID {
	ids := make([]ygm.HandlerID, n)
	for i := range ids {
		ids[i] = w.RegisterHandler(func(*ygm.Rank, *serialize.Decoder) {})
	}
	for i := n - 1; i >= 0; i-- {
		w.ReleaseHandlers(ids[i])
	}
	return ids
}

// TestRunReleasesHandlers: Run closes the Survey it builds, so 100 Runs on
// one world leave the registry as the first Run left it, and handler ids
// never grow past one varint byte — the 40th Run moves exactly the bytes
// the first did.
func TestRunReleasesHandlers(t *testing.T) {
	w, g := buildMeta(t, 4, randomEdges(13, 120, 1500), ygm.Options{})
	defer w.Close()
	run := func() Result {
		var n uint64
		res := runT(t, g, Options{Mode: PushPull}, nil, CountAnalysis[uint64, uint64]().Bind(&n))
		if n != res.Triangles {
			t.Fatalf("count analysis %d, survey %d", n, res.Triangles)
		}
		return res
	}
	traffic := func(res Result) [2]int64 {
		return [2]int64{
			res.DryRun.Bytes + res.Push.Bytes + res.Pull.Bytes,
			res.DryRun.Messages + res.Push.Messages + res.Pull.Messages,
		}
	}
	first := run()
	if first.PullsGranted == 0 || first.Triangles == 0 {
		t.Fatalf("workload exercises no pulls or triangles: %+v", first)
	}
	want := probeIDs(w, 5)
	for i := 2; i <= 100; i++ {
		res := run()
		if i == 40 && traffic(res) != traffic(first) {
			t.Errorf("run 40 moved (bytes, messages) %v, run 1 moved %v", traffic(res), traffic(first))
		}
		if i%10 == 0 {
			if got := probeIDs(w, 5); !equalIDs(got, want) {
				t.Fatalf("after run %d fresh handlers get ids %v, after run 1 %v", i, got, want)
			}
		}
	}
}

func equalIDs(a, b []ygm.HandlerID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMaterializedSnapshotCollectable: once Materialize has returned and a
// Run over the snapshot has finished, nothing on the world reaches the
// snapshot any more, cycle after cycle.
func TestMaterializedSnapshotCollectable(t *testing.T) {
	w, seed := buildTimestamped(t, 4, nil)
	defer w.Close()
	s, err := OpenStream(seed, StreamOptions[uint64]{MergeEdgeMeta: minMerge}, TemporalPlan())
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	var prev weak.Pointer[graph.DODGr[serialize.Unit, uint64]]
	for cycle := 0; cycle < 60; cycle++ {
		batch := make([]graph.Edge[uint64], 40)
		for i := range batch {
			batch[i] = graph.Edge[uint64]{U: uint64(rng.Intn(80)), V: uint64(rng.Intn(80)), Meta: uint64(cycle)}
		}
		if _, err := s.Ingest(batch); err != nil {
			t.Fatalf("cycle %d: Ingest: %v", cycle, err)
		}
		g := s.Materialize()
		res := runT(t, g, Options{Mode: PushPull}, nil)
		if res.Triangles != s.Triangles() {
			t.Fatalf("cycle %d: snapshot has %d triangles, stream %d", cycle, res.Triangles, s.Triangles())
		}
		prev = weak.Make(g)
		g = nil
		runtime.GC()
		if prev.Value() != nil {
			t.Fatalf("cycle %d: the finished snapshot is still reachable", cycle)
		}
	}
}
