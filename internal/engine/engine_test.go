package engine

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// testEdges generates a deterministic timestamped graph with plenty of
// triangles: a dense-ish random graph over n vertices, horizon 1<<16.
func testEdges(n int, m int, seed int64) []graph.TemporalEdge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.TemporalEdge, 0, m)
	for len(edges) < m {
		u := rng.Uint64() % uint64(n)
		v := rng.Uint64() % uint64(n)
		if u == v {
			continue
		}
		edges = append(edges, graph.TemporalEdge{U: u, V: v, Time: uint64(rng.Intn(1 << 16))})
	}
	return edges
}

func buildTemporal(w *ygm.World, edges []graph.TemporalEdge) *graph.DODGr[serialize.Unit, uint64] {
	b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{
		MergeEdgeMeta: func(a, c uint64) uint64 {
			if a < c {
				return a
			}
			return c
		},
	})
	var g *graph.DODGr[serialize.Unit, uint64]
	w.Parallel(func(r *ygm.Rank) {
		for i := r.ID(); i < len(edges); i += r.Size() {
			b.AddEdge(r, edges[i].U, edges[i].V, edges[i].Time)
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	return g
}

func newTestEngine(t *testing.T, g *graph.DODGr[serialize.Unit, uint64]) *Engine[serialize.Unit, uint64] {
	t.Helper()
	e := New(TemporalRegistry(), EngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }})
	if err := e.Register("g", g); err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// solo answers a spec without the engine: a fresh instance from the same
// registry, run under exactly the spec's own plan — the reference the
// coalesce ≡ solo property compares against.
func solo(t *testing.T, g *graph.DODGr[serialize.Unit, uint64], spec Spec) any {
	t.Helper()
	reg := TemporalRegistry()
	factory, ok := reg.Lookup(spec.Analysis)
	if !ok {
		t.Fatalf("unknown analysis %q", spec.Analysis)
	}
	inst, err := factory(g, spec)
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	plan, err := compilePlan[uint64](&spec, func(ts uint64) uint64 { return ts })
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	opts, err := spec.options()
	if err != nil {
		t.Fatalf("opts: %v", err)
	}
	if _, err := core.Run(g, opts, plan, inst.Attached); err != nil {
		t.Fatalf("solo run: %v", err)
	}
	return inst.Result()
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(JSONValue(v))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestCoalescedBatchSharesOneTraversal(t *testing.T) {
	w := ygm.MustWorld(4, ygm.Options{})
	defer w.Close()
	g := buildTemporal(w, testEdges(200, 2400, 1))
	e := newTestEngine(t, g)

	specs := []Spec{
		{Analysis: "count", Delta: Uint64(1 << 13)},
		{Analysis: "closure", Delta: Uint64(1 << 14)},
		{Analysis: "localcounts"},
	}
	jobs, err := e.SubmitAll(context.Background(), specs...)
	if err != nil {
		t.Fatalf("SubmitAll: %v", err)
	}
	for i, j := range jobs {
		qr, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if qr.CoalescedWith != 3 {
			t.Errorf("job %d CoalescedWith = %d, want 3", i, qr.CoalescedWith)
		}
		if got, want := asJSON(t, qr.Value), asJSON(t, solo(t, g, specs[i])); got != want {
			t.Errorf("job %d (%s): coalesced result differs from solo:\n got %s\nwant %s",
				i, specs[i].Analysis, got, want)
		}
	}
	st := e.Stats()
	if st.Traversals != 1 {
		t.Errorf("Traversals = %d, want 1 (one fused run for the whole batch)", st.Traversals)
	}
	if st.Coalesced != 3 {
		t.Errorf("Coalesced = %d, want 3", st.Coalesced)
	}
}

func TestIdenticalSpecsDedupeAndCache(t *testing.T) {
	w := ygm.MustWorld(3, ygm.Options{})
	defer w.Close()
	g := buildTemporal(w, testEdges(120, 1200, 2))
	e := newTestEngine(t, g)
	ctx := context.Background()

	spec := Spec{Analysis: "count", Delta: Uint64(1 << 13)}
	jobs, err := e.SubmitAll(ctx, spec, spec, spec)
	if err != nil {
		t.Fatalf("SubmitAll: %v", err)
	}
	var first QueryResult
	for i, j := range jobs {
		qr, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if i == 0 {
			first = qr
		} else if !reflect.DeepEqual(qr.Value, first.Value) {
			t.Errorf("job %d value %v != job 0 value %v", i, qr.Value, first.Value)
		}
	}
	st := e.Stats()
	if st.Traversals != 1 {
		t.Errorf("Traversals = %d, want 1", st.Traversals)
	}
	if st.Deduped != 2 {
		t.Errorf("Deduped = %d, want 2", st.Deduped)
	}

	// A later identical submission must be a pure cache hit: no traversal.
	j, err := e.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	qr, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !qr.Cached {
		t.Errorf("repeat query not served from cache")
	}
	if !reflect.DeepEqual(qr.Value, first.Value) {
		t.Errorf("cached value %v != original %v", qr.Value, first.Value)
	}
	if st := e.Stats(); st.Traversals != 1 || st.CacheHits != 1 {
		t.Errorf("Traversals = %d CacheHits = %d, want 1 and 1", st.Traversals, st.CacheHits)
	}

	// NoCache forces a fresh traversal.
	nospec := spec
	nospec.NoCache = true
	j2, err := e.Submit(ctx, nospec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if qr2, err := j2.Wait(ctx); err != nil || qr2.Cached {
		t.Errorf("NoCache job: err=%v cached=%v, want fresh run", err, qr2.Cached)
	}
	if st := e.Stats(); st.Traversals != 2 {
		t.Errorf("Traversals = %d after NoCache, want 2", st.Traversals)
	}

	// A different mode is a different traversal: the cache must not hand a
	// push-only client a push-pull run's Survey.
	pushOnly := spec
	pushOnly.Mode = "push-only"
	j3, err := e.Submit(ctx, pushOnly)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	qr3, err := j3.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if qr3.Cached {
		t.Errorf("push-only query served the push-pull cache entry")
	}
	if qr3.Survey.Mode != core.PushOnly {
		t.Errorf("Survey.Mode = %v, want push-only", qr3.Survey.Mode)
	}
	if !reflect.DeepEqual(qr3.Value, first.Value) {
		t.Errorf("push-only value %v != push-pull value %v", qr3.Value, first.Value)
	}

	// An explicit PullFactor equal to the clamped default shares the
	// default's cache slot (options are normalized before keying).
	pf := spec
	pf.PullFactor = 1.0
	j4, err := e.Submit(ctx, pf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if qr4, err := j4.Wait(ctx); err != nil || !qr4.Cached {
		t.Errorf("PullFactor=1.0 did not hit the default's cache entry: err=%v cached=%v", err, qr4.Cached)
	}
}

// TestCoalescedEqualsSoloProperty is the coalesce ≡ solo property: random
// batches of mixed specs (modes split the batch; differing plans union and
// leave residuals) must each produce byte-identical results to solo runs.
func TestCoalescedEqualsSoloProperty(t *testing.T) {
	w := ygm.MustWorld(4, ygm.Options{})
	defer w.Close()
	g := buildTemporal(w, testEdges(160, 2000, 3))
	rng := rand.New(rand.NewSource(7))
	analyses := []string{"count", "closure", "localcounts", "labels", "edgecounts", "cc"}
	modes := []string{"push-pull", "push-only"}

	for round := 0; round < 4; round++ {
		e := newTestEngine(t, g)
		var specs []Spec
		n := 3 + rng.Intn(4)
		for i := 0; i < n; i++ {
			spec := Spec{
				Analysis: analyses[rng.Intn(len(analyses))],
				Mode:     modes[rng.Intn(len(modes))],
			}
			switch rng.Intn(4) {
			case 0: // unrestricted
			case 1:
				spec.Delta = Uint64(uint64(1) << (11 + rng.Intn(5)))
			case 2:
				spec.From = Uint64(uint64(rng.Intn(1 << 15)))
				spec.Until = Uint64(uint64(1<<15 + rng.Intn(1<<15)))
			default:
				spec.Delta = Uint64(uint64(1) << (11 + rng.Intn(5)))
				spec.Until = Uint64(uint64(rng.Intn(1 << 16)))
			}
			specs = append(specs, spec)
		}
		jobs, err := e.SubmitAll(context.Background(), specs...)
		if err != nil {
			t.Fatalf("round %d SubmitAll: %v", round, err)
		}
		// Collect every result before running solo baselines: the batch may
		// span several mode groups, and a solo run must not share the world
		// with a traversal still executing for a later group.
		results := make([]QueryResult, len(jobs))
		for i, j := range jobs {
			qr, err := j.Wait(context.Background())
			if err != nil {
				t.Fatalf("round %d job %d (%+v): %v", round, i, specs[i], err)
			}
			results[i] = qr
		}
		for i, qr := range results {
			got, want := asJSON(t, qr.Value), asJSON(t, solo(t, g, specs[i]))
			if got != want {
				t.Errorf("round %d job %d (%+v): coalesced != solo\n got %s\nwant %s",
					round, i, specs[i], got, want)
			}
		}
		e.Close()
	}
}

func TestStreamEpochInvalidation(t *testing.T) {
	w := ygm.MustWorld(3, ygm.Options{})
	defer w.Close()
	seedEdges := testEdges(100, 900, 4)
	g := buildTemporal(w, seedEdges)
	plan := core.TemporalPlan()
	s, err := core.OpenStream(g, core.StreamOptions[uint64]{
		MergeEdgeMeta: func(a, c uint64) uint64 {
			if a < c {
				return a
			}
			return c
		},
	}, plan)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	e := New(TemporalRegistry(), EngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }})
	defer e.Close()
	if err := e.RegisterStream("s", s); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	ctx := context.Background()

	spec := Spec{Graph: "s", Analysis: "count"}
	j, err := e.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	qr0, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if qr0.Epoch != 0 {
		t.Errorf("epoch = %d, want 0", qr0.Epoch)
	}

	// Ingest a batch of fresh edges through the engine: epoch bumps, the
	// cache entry dies, and the next query answers against the new state.
	var batch []graph.Edge[uint64]
	for _, te := range testEdges(100, 300, 5) {
		batch = append(batch, graph.Edge[uint64]{U: te.U, V: te.V, Meta: te.Time})
	}
	if _, err := e.Ingest(ctx, "s", batch); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if ep, _ := e.Epoch("s"); ep != 1 {
		t.Errorf("epoch after Ingest = %d, want 1", ep)
	}
	j2, err := e.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	qr1, err := j2.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if qr1.Cached {
		t.Errorf("post-mutation query served from cache: epoch invalidation failed")
	}
	if qr1.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", qr1.Epoch)
	}
	// The new answer must match a solo run over the materialized new state.
	want := solo(t, s.Materialize(), Spec{Analysis: "count"})
	if !reflect.DeepEqual(qr1.Value, want) {
		t.Errorf("post-mutation value %v, want %v", qr1.Value, want)
	}
	if reflect.DeepEqual(qr0.Value, qr1.Value) {
		t.Logf("note: ingest did not change the count (possible but unlikely); values %v", qr0.Value)
	}
	if st := e.Stats(); st.Mutations != 1 {
		t.Errorf("Mutations = %d, want 1", st.Mutations)
	}
}

func TestSubmitValidation(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	g := buildTemporal(w, testEdges(40, 200, 6))
	ctx := context.Background()

	e := newTestEngine(t, g)
	if _, err := e.Submit(ctx, Spec{Analysis: "nope"}); err == nil {
		t.Error("unknown analysis accepted")
	}
	if _, err := e.Submit(ctx, Spec{Analysis: "count", Graph: "missing"}); err == nil {
		t.Error("unknown graph accepted")
	}
	if _, err := e.Submit(ctx, Spec{Analysis: "count", Mode: "pushy"}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := e.Submit(ctx, Spec{Analysis: "sweep"}); err == nil {
		// sweep requires args; the factory rejects at dispatch, so the job
		// fails rather than Submit.
		j, err := e.Submit(ctx, Spec{Analysis: "sweep"})
		if err != nil {
			t.Fatalf("Submit sweep: %v", err)
		}
		if _, err := j.Wait(ctx); err == nil {
			t.Error("sweep without deltas succeeded")
		}
	}

	// No Timestamps accessor: temporal specs must be rejected at Submit.
	e2 := New(TemporalRegistry(), EngineOptions[uint64]{})
	defer e2.Close()
	if err := e2.Register("g", g); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := e2.Submit(ctx, Spec{Analysis: "count", Delta: Uint64(5)}); err == nil {
		t.Error("temporal spec accepted without a Timestamps accessor")
	}

	// Ambiguous default graph.
	if err := e.Register("g2", g); err != nil {
		t.Fatalf("Register g2: %v", err)
	}
	if _, err := e.Submit(ctx, Spec{Analysis: "count"}); err == nil {
		t.Error("empty graph name accepted with two graphs registered")
	}

	// Closed engine.
	e3 := New(TemporalRegistry(), EngineOptions[uint64]{})
	if err := e3.Register("g", g); err != nil {
		t.Fatalf("Register: %v", err)
	}
	e3.Close()
	if _, err := e3.Submit(ctx, Spec{Analysis: "count", Graph: "g"}); err != ErrClosed {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	in := Spec{
		Graph:    "web",
		Analysis: "sweep",
		Args:     json.RawMessage(`{"deltas":[60,3600]}`),
		Mode:     "push-only",
		Delta:    Uint64(7200),
		From:     Uint64(10),
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Graph != in.Graph || out.Analysis != in.Analysis || out.Mode != in.Mode ||
		*out.Delta != *in.Delta || *out.From != *in.From || out.Until != nil ||
		string(out.Args) != string(in.Args) {
		t.Errorf("round trip mismatch: %+v -> %s -> %+v", in, b, out)
	}
	if in.analysisID() != out.analysisID() {
		t.Errorf("analysisID not stable across round trip: %q vs %q", in.analysisID(), out.analysisID())
	}
}

func TestCanonicalAndUnionPlans(t *testing.T) {
	tp := func() *core.Plan[uint64] { return core.TemporalPlan() }
	a := tp().CloseWithin(100)
	b := tp().CloseWithin(400).From(50)
	c := tp().From(10).Until(900)

	ka, ok := a.Canonical()
	if !ok || ka == "" {
		t.Fatalf("Canonical(a) = %q, %v", ka, ok)
	}
	if kb, _ := tp().CloseWithin(100).Canonical(); kb != ka {
		t.Errorf("equal plans canonicalize differently: %q vs %q", ka, kb)
	}
	if kp, ok := core.NewPlan[uint64]().WhereEdge(func(uint64) bool { return true }).Canonical(); ok {
		t.Errorf("predicate plan reported canonical key %q", kp)
	}

	// Union of {δ100} and {δ400, from50}: δ survives weakened to 400; from
	// is dropped (a carries none).
	u, ok := core.UnionPlans([]*core.Plan[uint64]{a, b})
	if !ok || u == nil {
		t.Fatalf("UnionPlans: %v, %v", u, ok)
	}
	if key, _ := u.Canonical(); key != "d400;" {
		t.Errorf("union key = %q, want d400;", key)
	}
	// Union with an unrestricted member is unrestricted.
	if u2, ok := core.UnionPlans([]*core.Plan[uint64]{a, nil}); !ok || u2 != nil {
		t.Errorf("union with nil member = %v, %v; want nil, true", u2, ok)
	}
	// {from10,until900} ∪ {δ400,from50} = from10, until dropped, δ dropped.
	u3, ok := core.UnionPlans([]*core.Plan[uint64]{c, b})
	if !ok {
		t.Fatalf("UnionPlans: not ok")
	}
	if key, _ := u3.Canonical(); key != "f10;" {
		t.Errorf("union key = %q, want f10;", key)
	}
}

// TestStatsCountAnswersBeforeRelease: a waiter released with an answer
// always finds that answer already counted in Stats. Every job carries a
// distinct δ, so each is served by its own traversal (no dedup, no cache).
func TestStatsCountAnswersBeforeRelease(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	g := buildTemporal(w, testEdges(30, 120, 5))
	e := newTestEngine(t, g)
	ctx := context.Background()
	const jobs = 300
	for i := 0; i < jobs; i++ {
		j, err := e.Submit(ctx, Spec{Analysis: "count", Delta: Uint64(uint64(i))})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if got := e.Stats().Completed; got != uint64(i+1) {
			t.Fatalf("job %d answered but Stats().Completed = %d, want %d", i, got, i+1)
		}
	}
	if st := e.Stats(); st.Traversals != jobs || st.CacheHits != 0 {
		t.Errorf("Traversals = %d CacheHits = %d, want %d and 0", st.Traversals, st.CacheHits, jobs)
	}
}
