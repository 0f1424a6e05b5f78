//go:build !race

package core

import (
	"math/rand"
	"testing"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// TestStreamIngestAllocBudget pins the steady-state allocation cost of a
// full incremental maintenance round: encode the batch through the pooled
// zero-copy path, run the delta survey (candidate codec, galloping
// intersections, pull replies), and mutate the adjacency in place. The
// budget has ~3.5× headroom over the measured steady state (~34 allocs for
// a 64-edge batch on 4 ranks) but sits two orders of magnitude below what
// a regression to per-message or per-candidate allocation would cost.
// Excluded under -race because race instrumentation inserts allocations.
func TestStreamIngestAllocBudget(t *testing.T) {
	w := ygm.MustWorld(4, ygm.Options{})
	defer w.Close()
	bld := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{})
	var g *graph.DODGr[serialize.Unit, uint64]
	w.Parallel(func(r *ygm.Rank) {
		gg := bld.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	var count uint64
	st, err := OpenStream(g,
		StreamOptions[uint64]{Survey: Options{Mode: PushOnly}, MergeEdgeMeta: func(a, b uint64) uint64 {
			if a < b {
				return a
			}
			return b
		}},
		TemporalPlan(), CountAnalysis[serialize.Unit, uint64]().Bind(&count))
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}

	rng := rand.New(rand.NewSource(11))
	mkBatch := func() []graph.Edge[uint64] {
		batch := make([]graph.Edge[uint64], 0, 64)
		for i := 0; i < 64; i++ {
			batch = append(batch, graph.Edge[uint64]{
				U: uint64(rng.Intn(400)), V: uint64(rng.Intn(400)), Meta: uint64(i),
			})
		}
		return batch
	}
	// Warm: grow adjacency arrays, candidate scratch, batch pools and the
	// analysis state to their steady-state high-water marks.
	for i := 0; i < 50; i++ {
		if _, err := st.Ingest(mkBatch()); err != nil {
			t.Fatalf("warm ingest %d: %v", i, err)
		}
	}

	batch := mkBatch()
	avg := testing.AllocsPerRun(200, func() {
		if _, err := st.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 120
	if avg > budget {
		t.Errorf("steady-state Ingest of a 64-edge batch: %.1f allocs/op, budget %d", avg, budget)
	}
	if st.Stats().Triangles == 0 {
		t.Fatal("stream counted no triangles; the workload did not exercise the survey path")
	}
}

// TestPushPullSurveyReuseAllocBudget pins the negotiation arenas: a reused
// Push-Pull Survey truncates and refills its park records, groups, grants
// and decline flags in place, so a warm Run allocates only the runtime's
// fixed per-region cost — not one slice per proposed target, as the
// per-target maps did.
func TestPushPullSurveyReuseAllocBudget(t *testing.T) {
	w, g := buildMeta(t, 4, randomEdges(17, 300, 4000), ygm.Options{})
	defer w.Close()
	s := NewSurvey(g, Options{Mode: PushPull}, nil)
	defer s.Close()
	var res Result
	for i := 0; i < 3; i++ {
		res = s.Run()
	}
	if res.PullsGranted == 0 || res.Push.Messages == 0 {
		t.Fatalf("workload exercises no pulls or pushes: %+v", res)
	}
	avg := testing.AllocsPerRun(20, func() { s.Run() })
	const budget = 50
	if avg > budget {
		t.Errorf("warm Push-Pull Run: %.1f allocs/op, budget %d", avg, budget)
	}
}
