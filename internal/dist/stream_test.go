package dist

import (
	"reflect"
	"testing"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/ygm"
)

// streamSnapshot is what one process publishes from a stream: the bound
// analysis outputs after Snapshot and the stream's own counters.
type streamSnapshot struct {
	count uint64
	verts map[uint64]uint64
	stats core.StreamStats
}

// runSnapshotStream is one process's side of the lockstep stream script:
// build the seed (only the driver feeds edges), open a stream with Count
// and VertexCount bound, ingest one batch, advance the watermark, and
// snapshot.
func runSnapshotStream(w *ygm.World, seed []graph.TemporalEdge, batch []graph.Edge[uint64], cutoff uint64) (streamSnapshot, error) {
	var out streamSnapshot
	g := buildTemporalOrdered(w, seed, graph.OrderDegree)
	s, err := core.OpenStream(g, core.StreamOptions[uint64]{MergeEdgeMeta: mergeMin}, core.TemporalPlan(),
		core.CountAnalysis[U, uint64]().Bind(&out.count),
		core.VertexCountAnalysis[U, uint64]().Bind(&out.verts))
	if err != nil {
		return out, err
	}
	if _, err := s.Ingest(batch); err != nil {
		return out, err
	}
	if _, err := s.Advance(cutoff); err != nil {
		return out, err
	}
	out.stats = s.Snapshot()
	return out, nil
}

// TestCrossProcessStreamSnapshot: Stream.Snapshot on a 2-process × 2-rank
// world publishes, on both processes, exactly what a 4-rank
// single-process stream publishes after the same ingest and advance —
// the snapshot reduction must gather every process's partial, as Run's
// does.
func TestCrossProcessStreamSnapshot(t *testing.T) {
	seed := randomTemporalEdges(21, 40, 150)
	var batch []graph.Edge[uint64]
	for _, e := range randomTemporalEdges(22, 40, 150) {
		batch = append(batch, graph.Edge[uint64]{U: e.U, V: e.V, Meta: e.Time + 32})
	}
	const cutoff = 16

	refW := ygm.MustWorld(4, tcpOpts())
	want, err := runSnapshotStream(refW, seed, batch, cutoff)
	refW.Close()
	if err != nil {
		t.Fatalf("single-process stream: %v", err)
	}
	if want.count == 0 {
		t.Fatal("reference stream holds no triangles; the script proves nothing")
	}

	cl, wks := startCluster(t, 2, 2, tcpOpts())
	type result struct {
		snap streamSnapshot
		err  error
	}
	done := make(chan result, 1)
	go func() {
		snap, err := runSnapshotStream(wks[0].World(), nil, batch, cutoff)
		done <- result{snap, err}
	}()
	driver, derr := runSnapshotStream(cl.World(), seed, batch, cutoff)
	worker := <-done
	if derr != nil {
		t.Fatalf("driver stream: %v", derr)
	}
	if worker.err != nil {
		t.Fatalf("worker stream: %v", worker.err)
	}
	for _, p := range []struct {
		name string
		got  streamSnapshot
	}{{"driver", driver}, {"worker", worker.snap}} {
		if p.got.count != want.count {
			t.Errorf("%s: count = %d, want %d", p.name, p.got.count, want.count)
		}
		if !reflect.DeepEqual(p.got.verts, want.verts) {
			t.Errorf("%s: vertex counts diverge from the single-process stream (%d vs %d vertices)", p.name, len(p.got.verts), len(want.verts))
		}
		if p.got.stats.Triangles != want.stats.Triangles {
			t.Errorf("%s: Stats().Triangles = %d, want %d", p.name, p.got.stats.Triangles, want.stats.Triangles)
		}
	}

	served := make(chan error, 1)
	go func() { served <- Serve(wks[0], Hooks[U, uint64]{}, nil) }()
	if err := cl.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
}
