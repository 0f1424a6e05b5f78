package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"tripoll"
	"tripoll/internal/baseline"
)

// model is the benchmark's own reference for a stream: the live edge set
// under the stream's semantics (a repeated edge keeps its earliest
// timestamp, Advance retires edges stamped below the cutoff, self loops
// are dropped) and its triangle count, kept incrementally.
type model struct {
	adj    map[uint64]map[uint64]uint64 // u -> v -> timestamp, both directions
	tri    uint64
	epoch  uint64
	counts map[uint64]uint64 // epoch -> live triangle count after it
}

func newModel(seed []tripoll.TemporalEdge) *model {
	m := &model{adj: map[uint64]map[uint64]uint64{}, counts: map[uint64]uint64{}}
	for _, e := range seed {
		m.insert(e)
	}
	var pairs [][2]uint64
	for _, e := range m.liveEdges() {
		pairs = append(pairs, [2]uint64{e.U, e.V})
	}
	m.tri = baseline.SerialCount(pairs)
	return m
}

// insert adds e and reports whether it created a new live edge.
func (m *model) insert(e tripoll.TemporalEdge) bool {
	if e.U == e.V {
		return false
	}
	if t, ok := m.adj[e.U][e.V]; ok {
		if e.Time < t {
			m.adj[e.U][e.V], m.adj[e.V][e.U] = e.Time, e.Time
		}
		return false
	}
	for _, x := range [2][2]uint64{{e.U, e.V}, {e.V, e.U}} {
		if m.adj[x[0]] == nil {
			m.adj[x[0]] = map[uint64]uint64{}
		}
		m.adj[x[0]][x[1]] = e.Time
	}
	return true
}

// common counts the live common neighbours of u and v.
func (m *model) common(u, v uint64) uint64 {
	a, b := m.adj[u], m.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	var n uint64
	for w := range a {
		if _, ok := b[w]; ok {
			n++
		}
	}
	return n
}

func (m *model) ingest(batch []tripoll.TemporalEdge) {
	for _, e := range batch {
		if m.insert(e) {
			m.tri += m.common(e.U, e.V)
		}
	}
}

func (m *model) advance(cutoff uint64) {
	for _, e := range m.liveEdges() {
		if e.Time >= cutoff {
			continue
		}
		m.tri -= m.common(e.U, e.V)
		delete(m.adj[e.U], e.V)
		delete(m.adj[e.V], e.U)
	}
}

// record notes the triangle count the program should report at epoch.
func (m *model) record(epoch uint64) {
	m.epoch = epoch
	m.counts[epoch] = m.tri
}

func (m *model) liveEdges() []tripoll.TemporalEdge {
	var out []tripoll.TemporalEdge
	for u, nb := range m.adj {
		for v, t := range nb {
			if u < v {
				out = append(out, tripoll.TemporalEdge{U: u, V: v, Time: t})
			}
		}
	}
	return out
}

// plannedFinal is the model after every mutation of the schedule: the
// final-epoch graph when every mutation succeeds.
func plannedFinal(in streamInput) *model {
	m := newModel(in.seed)
	for _, x := range in.ops {
		if x.kind != opIngest {
			continue
		}
		m.ingest(x.batch)
		if x.cutoff > 0 {
			m.advance(x.cutoff)
		}
	}
	return m
}

// verifyFinal asks tripolld every question of the mix at the final epoch
// and compares each answer with a fresh survey by ref, the graph of the
// planned final edges. The load's model m must hold exactly those edges.
func verifyFinal(o *outcome, c *client, in streamInput, m *model, planned []tripoll.TemporalEdge, ref *reference, final uint64) error {
	defer c.close()
	if live := m.liveEdges(); !sameEdges(live, planned) {
		o.mismatch("the load left %d live edges, the schedule plans %d or others", len(live), len(planned))
	}
	f, err := ref.fused(tripoll.QuerySpec{})
	if err != nil {
		return err
	}
	if f.count != m.tri {
		o.mismatch("rebuilt graph has %d triangles, reference model %d", f.count, m.tri)
	}
	for _, spec := range in.specs {
		o.attempted++
		ans, err := c.query(0, spec)
		if err != nil {
			o.failed++
			o.mismatch("final query %s: %v", specKey(spec), err)
			continue
		}
		epoch := ans.epoch
		got, err := canonical(ans.value)
		if err != nil {
			return err
		}
		want, err := ref.answer(spec)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", specKey(spec), err)
		}
		if epoch != final || got != want {
			o.failed++
			o.mismatch("final query %s at epoch %d (want %d): answer differs from a fresh survey", specKey(spec), epoch, final)
		}
	}
	return nil
}

// sameEdges reports whether a and b hold the same edges, in any order.
func sameEdges(a, b []tripoll.TemporalEdge) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[tripoll.TemporalEdge]bool, len(a))
	for _, e := range a {
		set[e] = true
	}
	for _, e := range b {
		if !set[e] {
			return false
		}
	}
	return true
}

// timeFused times the fused whole-window survey for at least d and at
// least nine times, after two warm-up surveys and from a collected heap,
// and returns the wall times in seconds.
func (r *reference) timeFused(d time.Duration) ([]float64, error) {
	for i := 0; i < 2; i++ {
		if _, err := r.fused(tripoll.QuerySpec{}); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var times []float64
	for start := time.Now(); len(times) < 9 || time.Since(start) < d; {
		t0 := time.Now()
		if _, err := r.fused(tripoll.QuerySpec{}); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// reference answers query specs with fresh library surveys of one graph.
type reference struct {
	g     *tripoll.Graph[tripoll.Unit, uint64]
	fuses map[string]fusedAnswer
}

type fusedAnswer struct {
	count   uint64
	closure *tripoll.Joint2D
	local   map[uint64]uint64
}

func newReference(g *tripoll.Graph[tripoll.Unit, uint64]) *reference {
	return &reference{g: g, fuses: map[string]fusedAnswer{}}
}

func planOf(spec tripoll.QuerySpec) *tripoll.SurveyPlan[uint64] {
	if !spec.HasPlan() {
		return nil
	}
	p := tripoll.NewTemporalPlan()
	if spec.Delta != nil {
		p.CloseWithin(*spec.Delta)
	}
	if spec.From != nil {
		p.From(*spec.From)
	}
	if spec.Until != nil {
		p.Until(*spec.Until)
	}
	return p
}

// fused runs count, closure and localcounts in one traversal under the
// spec's plan.
func (r *reference) fused(spec tripoll.QuerySpec) (fusedAnswer, error) {
	var f fusedAnswer
	_, err := tripoll.Run(r.g, tripoll.SurveyOptions{}, planOf(spec),
		tripoll.CountAnalysis[tripoll.Unit, uint64]().Bind(&f.count),
		tripoll.ClosureTimeAnalysis[tripoll.Unit]().Bind(&f.closure),
		tripoll.VertexCountAnalysis[tripoll.Unit, uint64]().Bind(&f.local))
	return f, err
}

func window(spec tripoll.QuerySpec) tripoll.TrussWindow {
	w := tripoll.WholeTrussWindow()
	if spec.From != nil {
		w.From = *spec.From
	}
	if spec.Until != nil {
		w.Until = *spec.Until
	}
	return w
}

// maxTruss is the "maxtruss" answer shape.
type maxTruss struct {
	Max   int         `json:"max"`
	Sizes []trussSize `json:"sizes"`
}

type trussSize struct {
	K     int `json:"k"`
	Edges int `json:"edges"`
}

// answer returns the canonical JSON of spec's answer on the graph.
func (r *reference) answer(spec tripoll.QuerySpec) (string, error) {
	var v any
	switch spec.Analysis {
	case "count", "closure", "localcounts":
		plan := spec
		plan.Analysis = ""
		key := specKey(plan)
		f, ok := r.fuses[key]
		if !ok {
			var err error
			if f, err = r.fused(spec); err != nil {
				return "", err
			}
			r.fuses[key] = f
		}
		switch spec.Analysis {
		case "count":
			v = f.count
		case "closure":
			v = tripoll.QueryJSONValue(f.closure)
		default:
			v = f.local
		}
	case "trussness", "maxtruss":
		d, err := tripoll.WindowTrussness(r.g, window(spec), tripoll.SurveyOptions{})
		if err != nil {
			return "", err
		}
		if spec.Analysis == "trussness" {
			v = d
			break
		}
		mt := maxTruss{Max: d.Max, Sizes: []trussSize{}}
		for k := 2; k <= d.Max; k++ {
			n := 0
			for _, e := range d.Edges {
				if e.K >= k {
					n++
				}
			}
			mt.Sizes = append(mt.Sizes, trussSize{K: k, Edges: n})
		}
		v = mt
	case "spantruss":
		var args tripoll.SpanTrussQueryArgs
		if err := json.Unmarshal(spec.Args, &args); err != nil {
			return "", err
		}
		res, err := tripoll.WindowSpanTruss(r.g, args.K, args.Spans, tripoll.SurveyOptions{})
		if err != nil {
			return "", err
		}
		v = res
	default:
		return "", fmt.Errorf("no reference for analysis %q", spec.Analysis)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return canonical(b)
}
