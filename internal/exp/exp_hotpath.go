package exp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

// HotPath measures the serving hot path — survey runs, the zero-copy
// push-phase encode, and stream ingest — at a FIXED size regardless of
// cfg.Scale/MaxRanks, so its numbers are comparable point-to-point across
// the BENCH_*.json trajectory. It is the workload the CI bench gate diffs:
// its alloc counts are deterministic per commit, and every timed metric
// carries a wall_ns/allocs bracket via testing.Benchmark.
//
// Each mode also re-runs on a CopyEncode world (the pre-zero-copy
// reference encode path) and cross-checks results byte-for-byte at the
// counter level, so a framing bug in the pooled path shows up here as a
// MISMATCH before the gate ever looks at numbers.

const (
	hotVerts      = 600
	hotEdgeDraws  = 4000
	hotRanks      = 4
	hotSeed       = 7
	hotStreamSeed = 11
	hotBatchEdges = 64
	hotWarmBatch  = 50
)

func hotEdgeList() [][2]uint64 {
	rng := rand.New(rand.NewSource(hotSeed))
	edges := make([][2]uint64, 0, hotEdgeDraws)
	for i := 0; i < hotEdgeDraws; i++ {
		u, v := uint64(rng.Intn(hotVerts)), uint64(rng.Intn(hotVerts))
		if u == v {
			continue
		}
		edges = append(edges, [2]uint64{u, v})
	}
	return edges
}

// measureBench runs fn under testing.Benchmark and reports the per-op
// bracket alongside the raw result.
func measureBench(fn func(b *testing.B)) (testing.BenchmarkResult, Measured) {
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return br, Measured{
		WallNs:     float64(br.NsPerOp()),
		Allocs:     float64(br.AllocsPerOp()),
		AllocBytes: float64(br.AllocedBytesPerOp()),
	}
}

// surveyCounters is the machine-independent face of a Result; two encode
// disciplines must agree on all of it.
func surveyCounters(res core.Result) [6]uint64 {
	return [6]uint64{
		res.Triangles, res.WedgeChecks,
		uint64(res.Push.Bytes), uint64(res.Push.Messages),
		uint64(res.Pull.Bytes), uint64(res.Pull.Messages),
	}
}

// HotPath is the "hotpath" experiment driver.
func HotPath(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "hotpath", Title: "Hot-path microbenchmarks (fixed: 600 vertices, ~4000 edge draws, 4 ranks)"}
	edges := hotEdgeList()
	extra := fmt.Sprintf("verts=%d draws=%d ranks=%d transport=%s", hotVerts, hotEdgeDraws, hotRanks, cfg.Transport)

	w, g := BuildUnit(cfg, hotRanks, edges)
	defer w.Close()
	wRef := ygm.MustWorld(hotRanks, ygm.Options{Transport: cfg.Transport, CopyEncode: true})
	defer wRef.Close()
	gRef := BuildUnitOn(wRef, edges)

	tb := stats.NewTable("(per survey run / per ingested batch)",
		"subject", "wall", "allocs/op", "bytes/op", "triangles")
	var wantTriangles uint64
	for _, mode := range []struct {
		name string
		m    core.Mode
	}{{"pushonly", core.PushOnly}, {"pushpull", core.PushPull}} {
		s := core.NewSurvey(g, core.Options{Mode: mode.m}, nil)
		res := s.Run() // warm pools; capture counters
		sRef := core.NewSurvey(gRef, core.Options{Mode: mode.m}, nil)
		resRef := sRef.Run()
		if surveyCounters(res) != surveyCounters(resRef) {
			rep.notef("MISMATCH: %s zero-copy counters %v != copy-encode reference %v",
				mode.name, surveyCounters(res), surveyCounters(resRef))
		}
		if mode.name == "pushonly" {
			wantTriangles = res.Triangles
		} else if res.Triangles != wantTriangles {
			rep.notef("MISMATCH: pushpull triangles %d != pushonly %d", res.Triangles, wantTriangles)
		}

		br, m := measureBench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Run()
			}
		})
		rep.metricM("hotpath/"+mode.name+"/run", float64(br.NsPerOp()), "ns/op", extra, m)
		rep.metric("hotpath/"+mode.name+"/push_bytes", float64(res.Push.Bytes), "bytes", extra)
		rep.metric("hotpath/"+mode.name+"/push_msgs", float64(res.Push.Messages), "msgs", extra)
		rep.metric("hotpath/"+mode.name+"/wedge_checks", float64(res.WedgeChecks), "wedges", extra)
		tb.AddRow("survey "+mode.name, stats.FormatDuration(time.Duration(br.NsPerOp())),
			fmt.Sprintf("%d", br.AllocsPerOp()), stats.FormatBytes(br.AllocedBytesPerOp()),
			stats.FormatCount(res.Triangles))

		// The reference discipline rides along in the trajectory so the
		// zero-copy win stays visible (and a silent fallback to copying
		// would show as an alloc regression on the zero-copy rows, not
		// here).
		brRef, mRef := measureBench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sRef.Run()
			}
		})
		rep.metricM("hotpath/"+mode.name+"/run_copyencode", float64(brRef.NsPerOp()), "ns/op", extra, mRef)
		tb.AddRow("  copy-encode ref", stats.FormatDuration(time.Duration(brRef.NsPerOp())),
			fmt.Sprintf("%d", brRef.AllocsPerOp()), stats.FormatBytes(brRef.AllocedBytesPerOp()), "")
		sRef.Close()
		s.Close()
	}

	// Stream ingest: a temporal stream warmed with hotWarmBatch batches,
	// then one steady-state batch ingested per op (duplicate inserts take
	// the merge path — the serving regime).
	wS := ygm.MustWorld(hotRanks, ygm.Options{Transport: cfg.Transport})
	defer wS.Close()
	bld := graph.NewBuilder(wS, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{})
	var gS *graph.DODGr[serialize.Unit, uint64]
	wS.Parallel(func(r *ygm.Rank) {
		gg := bld.Build(r)
		if r.ID() == 0 {
			gS = gg
		}
	})
	bld.Close()
	var count uint64
	st, err := core.OpenStream(gS,
		core.StreamOptions[uint64]{Survey: core.Options{Mode: core.PushOnly}, MergeEdgeMeta: func(a, b uint64) uint64 {
			if a < b {
				return a
			}
			return b
		}},
		core.TemporalPlan(), core.StreamCountAnalysis[serialize.Unit, uint64]().Bind(&count))
	if err != nil {
		rep.notef("UNEXPECTED: OpenStream failed: %v", err)
		rep.Output = tb.Render()
		return rep
	}
	rng := rand.New(rand.NewSource(hotStreamSeed))
	mkBatch := func() []graph.Edge[uint64] {
		batch := make([]graph.Edge[uint64], 0, hotBatchEdges)
		for i := 0; i < hotBatchEdges; i++ {
			u, v := uint64(rng.Intn(400)), uint64(rng.Intn(400))
			batch = append(batch, graph.Edge[uint64]{U: u, V: v, Meta: uint64(i)})
		}
		return batch
	}
	for i := 0; i < hotWarmBatch; i++ {
		if _, err := st.Ingest(mkBatch()); err != nil {
			rep.notef("UNEXPECTED: warm ingest failed: %v", err)
			rep.Output = tb.Render()
			return rep
		}
	}
	batch := mkBatch()
	brI, mI := measureBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.Ingest(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.metricM("hotpath/stream/ingest", float64(brI.NsPerOp()), "ns/op",
		fmt.Sprintf("batch=%d warm=%d ranks=%d transport=%s", hotBatchEdges, hotWarmBatch, hotRanks, cfg.Transport), mI)
	tb.AddRow("stream ingest", stats.FormatDuration(time.Duration(brI.NsPerOp())),
		fmt.Sprintf("%d", brI.AllocsPerOp()), stats.FormatBytes(brI.AllocedBytesPerOp()),
		stats.FormatCount(st.Stats().Triangles))

	rep.Output = tb.Render()
	rep.notef("fixed-size driver: ignores -scale and -max-ranks by design (trajectory comparability)")
	return rep
}
