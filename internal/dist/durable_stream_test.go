package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tripoll/internal/core"
	"tripoll/internal/engine"
	"tripoll/internal/graph"
	"tripoll/internal/ygm"
)

// The acceptance property of the broadcast mutation seam (DESIGN.md §14):
// a durable stream served by an N≥2-process world — WAL driver-side,
// every ingest/advance broadcast for a collective apply, two-phase
// committed — produces byte-identical analyses to a single-process
// durable stream at EVERY epoch of the mutation history, including after
// killing the whole process group at a record boundary and recovering a
// fresh one from the log (the replay re-broadcast path).

// durableHooks is the worker side of the durable-stream configuration the
// tests drive: the exact Build/OpenStream mapping cmd/tripoll-worker ships
// for the "temporal" policy.
func durableHooks() Hooks[U, uint64] {
	return Hooks[U, uint64]{
		Registry:   engine.TemporalRegistry(),
		Timestamps: func(ts uint64) uint64 { return ts },
		Build: func(w *ygm.World, name string, spec BuildSpec) (*graph.DODGr[U, uint64], error) {
			return buildTemporalOrdered(w, nil, graph.Ordering(spec.Ordering)), nil
		},
		OpenStream: func(g *graph.DODGr[U, uint64], policy string) (*core.Stream[U, uint64], error) {
			if policy != "temporal" {
				return nil, fmt.Errorf("unknown stream policy %q", policy)
			}
			return core.OpenStream(g, core.StreamOptions[uint64]{MergeEdgeMeta: mergeMin}, core.TemporalPlan())
		},
	}
}

// durableWorld is one incarnation of the process group: cluster, serving
// workers, and a driver engine over a durable stream rooted at dir.
type durableWorld struct {
	cl     *Cluster
	e      *engine.Engine[U, uint64]
	served chan error
	nwk    int
}

// startDurableMulti assembles a procs×perProc world, runs the collective
// seed build, and opens the durable stream over dir — replaying (and
// re-broadcasting) whatever history dir already holds.
func startDurableMulti(t *testing.T, procs, perProc int, seedEdges []graph.TemporalEdge, dir string) *durableWorld {
	t.Helper()
	cl, wks := startCluster(t, procs, perProc, tcpOpts())
	served := make(chan error, len(wks))
	for _, wk := range wks {
		go func(wk *Worker) { served <- Serve(wk, durableHooks(), nil) }(wk)
	}
	if err := cl.Build("g", BuildSpec{Policy: "temporal"}); err != nil {
		t.Fatalf("Build broadcast: %v", err)
	}
	g := buildTemporalOrdered(cl.World(), seedEdges, graph.OrderDegree)
	e := engine.New(engine.TemporalRegistry(), engine.EngineOptions[uint64]{
		Timestamps: func(ts uint64) uint64 { return ts },
		Fanout:     cl,
		Mutator:    cl,
	})
	if _, _, err := e.OpenDurableStream("g", g,
		core.StreamOptions[uint64]{MergeEdgeMeta: mergeMin}, core.TemporalPlan(),
		engine.DurableOptions{Dir: dir, Policy: "temporal"}); err != nil {
		t.Fatalf("OpenDurableStream (multi): %v", err)
	}
	return &durableWorld{cl: cl, e: e, served: served, nwk: len(wks)}
}

// stop tears the incarnation down. The workers' in-memory streams die with
// it — from their perspective this IS a crash at a record boundary: the
// next incarnation's workers start blank and live entirely off the
// driver's WAL re-broadcast.
func (d *durableWorld) stop(t *testing.T) {
	t.Helper()
	d.e.Close()
	if err := d.cl.Close(); err != nil {
		t.Errorf("cluster close: %v", err)
	}
	for i := 0; i < d.nwk; i++ {
		if err := <-d.served; err != nil {
			t.Errorf("worker serve: %v", err)
		}
	}
}

// durableMutation is one step of the shared mutation script: an edge batch
// to ingest, or (batch nil) a watermark advance.
type durableMutation struct {
	batch  []graph.Edge[uint64]
	cutoff uint64
}

func applyDurable(t *testing.T, e *engine.Engine[U, uint64], m durableMutation) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var err error
	if m.batch != nil {
		_, err = e.Ingest(ctx, "g", m.batch)
	} else {
		_, err = e.Advance(ctx, "g", m.cutoff)
	}
	if err != nil {
		t.Fatalf("mutation %+v: %v", m, err)
	}
}

func TestCrossProcessDurableStream(t *testing.T) {
	const ranks = 4
	seedEdges := randomTemporalEdges(3, 40, 120)
	extra := randomTemporalEdges(4, 40, 36)
	specs := []engine.Spec{
		{Graph: "g", Analysis: "count"},
		{Graph: "g", Analysis: "closure", Delta: engine.Uint64(6)},
		{Graph: "g", Analysis: "cc"},
		{Graph: "g", Analysis: "edgecounts", Delta: engine.Uint64(10)},
	}
	// The script interleaves ingests (12 edges each) with advances; the
	// group is killed and recovered after step killAfter.
	var script []durableMutation
	for i := 0; i < len(extra); i += 12 {
		b := make([]graph.Edge[uint64], 0, 12)
		for _, e := range extra[i : i+12] {
			b = append(b, graph.Edge[uint64]{U: e.U, V: e.V, Meta: e.Time})
		}
		script = append(script, durableMutation{batch: b})
		script = append(script, durableMutation{cutoff: uint64(4 * (i/12 + 1))})
	}
	const killAfter = 3

	// Single-process reference: same seed, same script, its own WAL.
	refW, err := ygm.NewWorld(ranks, tcpOpts())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	defer refW.Close()
	ref := engine.New(engine.TemporalRegistry(), engine.EngineOptions[uint64]{
		Timestamps: func(ts uint64) uint64 { return ts },
	})
	defer ref.Close()
	if _, _, err := ref.OpenDurableStream("g", buildTemporalOrdered(refW, seedEdges, graph.OrderDegree),
		core.StreamOptions[uint64]{MergeEdgeMeta: mergeMin}, core.TemporalPlan(),
		engine.DurableOptions{Dir: t.TempDir(), Policy: "temporal"}); err != nil {
		t.Fatalf("OpenDurableStream (ref): %v", err)
	}

	check := func(step string, multi *durableWorld) {
		t.Helper()
		re, _ := ref.Epoch("g")
		me, _ := multi.e.Epoch("g")
		if re != me {
			t.Fatalf("%s: epoch diverged: ref=%d multi=%d", step, re, me)
		}
		want := submitAll(t, ref, specs)
		got := submitAll(t, multi.e, specs)
		for i := range specs {
			if want[i] != got[i] {
				t.Errorf("%s: spec %q diverged at epoch %d:\n  1-process: %+v\n  %d-process: %+v",
					step, specs[i].Analysis, re, want[i], 2, got[i])
			}
		}
	}

	dir := t.TempDir()
	multi := startDurableMulti(t, 2, ranks/2, seedEdges, dir)
	check("seed", multi)
	for i, m := range script[:killAfter] {
		applyDurable(t, ref, m)
		applyDurable(t, multi.e, m)
		check(fmt.Sprintf("step %d", i), multi)
	}

	// Kill the whole group at the record boundary and recover a fresh one
	// from the WAL: the replay must re-broadcast every logged mutation to
	// the new (blank) workers before serving.
	multi.stop(t)
	multi = startDurableMulti(t, 2, ranks/2, seedEdges, dir)
	defer multi.stop(t)
	st, ok := multi.e.DurableStatus("g")
	if !ok {
		t.Fatal("no durable status after recovery")
	}
	if st.ReplayRebroadcasts != killAfter {
		t.Errorf("replay re-broadcasts = %d, want %d", st.ReplayRebroadcasts, killAfter)
	}
	check("recovered", multi)

	// The recovered group keeps accepting the rest of the script in
	// lockstep with the never-restarted reference.
	for i, m := range script[killAfter:] {
		applyDurable(t, ref, m)
		applyDurable(t, multi.e, m)
		check(fmt.Sprintf("post-recovery step %d", i), multi)
	}
}

// TestWorkerDeathMidMutation: a worker that leaves or dies between a
// mutation's collective apply and its acknowledgement must fail the
// mutation with a typed error — never hang the driver's scheduler.
func TestWorkerDeathMidMutation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		leave bool // kLeave before closing vs raw connection death
	}{
		{name: "leave", leave: true},
		{name: "die", leave: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, wks := startCluster(t, 2, 1, tcpOpts())
			wk := wks[0]
			hooks := durableHooks()
			// A hand-rolled serve loop: correct through the build and the
			// stream open, enters the first mutation's collective apply in
			// lockstep (the driver's own apply needs the whole world) — and
			// then departs without ever acknowledging it.
			wkErr := make(chan error, 1)
			go func() {
				var g *graph.DODGr[U, uint64]
				var s *core.Stream[U, uint64]
				var err error
				for fe := range wk.frames {
					if fe.err != nil {
						wkErr <- fmt.Errorf("link: %w", fe.err)
						return
					}
					m := fe.m
					switch m.Kind {
					case kBuild:
						if g, err = hooks.Build(wk.w, m.Graph, m.Build); err != nil {
							wkErr <- fmt.Errorf("build: %w", err)
							return
						}
					case kStream:
						if s, err = hooks.OpenStream(g, m.Policy); err != nil {
							wkErr <- fmt.Errorf("stream: %w", err)
							return
						}
					case kIngest:
						applyMutation(s, g, m)
						if tc.leave {
							wk.cc.send(&ctrlMsg{Kind: kLeave})
						}
						wk.cc.close()
						wkErr <- nil
						return
					default:
						wkErr <- fmt.Errorf("unexpected %v frame", m.Kind)
						return
					}
				}
			}()

			if err := cl.Build("g", BuildSpec{Policy: "temporal"}); err != nil {
				t.Fatalf("Build broadcast: %v", err)
			}
			g := buildTemporalOrdered(cl.World(), randomTemporalEdges(9, 24, 60), graph.OrderDegree)
			e := engine.New(engine.TemporalRegistry(), engine.EngineOptions[uint64]{
				Timestamps: func(ts uint64) uint64 { return ts },
				Fanout:     cl,
				Mutator:    cl,
			})
			defer e.Close()
			if _, _, err := e.OpenDurableStream("g", g,
				core.StreamOptions[uint64]{MergeEdgeMeta: mergeMin}, core.TemporalPlan(),
				engine.DurableOptions{Dir: t.TempDir(), Policy: "temporal"}); err != nil {
				t.Fatalf("OpenDurableStream: %v", err)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := e.Ingest(ctx, "g", []graph.Edge[uint64]{{U: 1, V: 2, Meta: 3}})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("ingest succeeded with a worker dead mid-mutation")
				}
				if tc.leave {
					if !errors.Is(err, ErrWorkerLeft) {
						t.Errorf("error = %v, want wrapping ErrWorkerLeft", err)
					}
				} else if !strings.Contains(err.Error(), "mutation ack") {
					t.Errorf("error = %v, want a mutation-ack failure", err)
				}
			case <-time.After(25 * time.Second):
				t.Fatal("ingest hung on a dead worker instead of failing")
			}
			if err := <-wkErr; err != nil {
				t.Errorf("fake worker: %v", err)
			}
			cl.Close()
			wk.w.Close()
		})
	}
}

// TestCheckAdvertisable pins the -listen/-rendezvous validation: hosts no
// peer could dial back are rejected with an actionable error before any
// listener binds (S1 of PR 9).
func TestCheckAdvertisable(t *testing.T) {
	for _, addr := range []string{"127.0.0.1:0", "localhost:9000", "192.168.1.5:0", "[::1]:0", "node7.cluster:8372"} {
		if err := checkAdvertisable(addr); err != nil {
			t.Errorf("checkAdvertisable(%q) = %v, want nil", addr, err)
		}
	}
	for _, addr := range []string{":0", "0.0.0.0:0", "[::]:0", "no-port", ""} {
		if err := checkAdvertisable(addr); err == nil {
			t.Errorf("checkAdvertisable(%q) = nil, want error", addr)
		} else if addr == ":0" && !strings.Contains(err.Error(), "advertised") {
			t.Errorf("checkAdvertisable(%q) error %q does not explain advertising", addr, err)
		}
	}
	// The empty default of listenLocal stays loopback (and therefore legal).
	lns, addrs, err := listenLocal("", 1)
	if err != nil {
		t.Fatalf("listenLocal default: %v", err)
	}
	for _, ln := range lns {
		ln.Close()
	}
	if !strings.HasPrefix(addrs[0], "127.0.0.1:") {
		t.Errorf("default listen address = %q, want loopback", addrs[0])
	}
}
