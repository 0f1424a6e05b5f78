package core

import (
	"time"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// Options configures a survey.
type Options struct {
	// Mode selects Push-Only (Alg. 1) or Push-Pull (§4.4).
	Mode Mode
	// PullFactor scales the pull side of the dry-run comparison: a target
	// vertex q is pulled by a source rank when
	//     |Adj⁺(q)| · PullFactor  <  Σ_{p local to source} |candidates → q|.
	// 1.0 reproduces the paper's inequality; other values are exposed for
	// the ablation study of the decision threshold. Values that cannot
	// scale a cost — zero, negatives (which would flip the inequality for
	// every non-empty adjacency), NaN — are clamped to 1.0.
	PullFactor float64
}

// PhaseStats describes one phase of a survey run: its wall-clock duration
// and the communication it generated (Table 4 reports exactly these).
type PhaseStats struct {
	Duration time.Duration
	Bytes    int64
	Messages int64
	Batches  int64
}

// Result summarizes a survey run.
type Result struct {
	Mode Mode
	// Ordering names the vertex-ordering strategy the surveyed graph was
	// built with ("degree" or "degeneracy") so ablation output and bench
	// records can attribute work measures to the order that produced them.
	Ordering  string
	Triangles uint64 // total callback firings == |T(G)|

	// Analyses names the analyses fused into this traversal, in attachment
	// order, when the run came through Run; nil for bare Survey.Run calls.
	// Bench records and ablation output use it to attribute a run to the
	// questions it answered in one pass.
	Analyses []string

	// DryRun, Push and Pull break the run into the paper's three phases
	// (Fig. 7). Push-Only runs populate only Push.
	DryRun PhaseStats
	Push   PhaseStats
	Pull   PhaseStats

	Total time.Duration

	// PullsGranted counts (target vertex, source rank) pairs that chose
	// pull; divided by world size it is Table 3's "Avg. Pulls Per Rank".
	PullsGranted    uint64
	AvgPullsPerRank float64

	// WedgeChecks counts candidate comparisons actually performed, the
	// algorithm's unit of work (|W⁺| when nothing is skipped).
	WedgeChecks uint64
	// MaxRankWedgeChecks is the largest number of wedge checks any single
	// rank performed — the critical-path work measure. On a simulated-rank
	// runtime (ranks are goroutines, possibly on few physical cores) this,
	// not wall clock, is the quantity strong scaling should be judged by.
	MaxRankWedgeChecks uint64
	// WorkBalance is WedgeChecks / (ranks · MaxRankWedgeChecks) ∈ (0, 1]:
	// 1.0 means perfectly balanced intersection work.
	WorkBalance float64

	// Planned reports whether a survey plan's pushed-down predicates were
	// active; when true, Triangles counts only plan-matching triangles
	// (callback firings), and the Pruned* counters below are meaningful.
	Planned bool
	// PrunedBatches counts wedge batches never enqueued: the batch's edge
	// (p,q) failed the edge filter, or every candidate in its suffix failed
	// the candidate filter.
	PrunedBatches uint64
	// PrunedCandidates counts suffix entries dropped before encoding —
	// wedge checks (and their bytes) that never happened anywhere.
	PrunedCandidates uint64
	// PrunedPullEntries counts Adj⁺ᵐ(q) entries omitted from pull replies
	// (including all entries of replies skipped entirely).
	PrunedPullEntries uint64

	// Delta reports that this Result describes one incremental stream
	// batch (Stream.Ingest or Stream.Advance), not a full traversal: the
	// phase stats cover only the delta-scoped dry run/push/pull, Triangles
	// counts the (plan-matching) triangles the batch created or destroyed,
	// and Mutate holds the structural mutation traffic (edge routing and
	// metadata completion) that preceded the traversal.
	Delta bool
	// DeltaEdges counts the edges the batch inserted (Ingest) or retired
	// (Advance) — the wedge sources of the delta traversal.
	DeltaEdges uint64
	// Rebuilt reports that the batch fell back to a windowed epoch rebuild
	// (a non-invertible analysis met an expiry, or a metadata-revising
	// merge): the phase stats then cover the from-scratch traversal, and
	// Mutate additionally includes the snapshot build.
	Rebuilt bool
	// Mutate is the structural phase of a stream batch: ingest routing,
	// expiry bookkeeping, and (under Rebuilt) the snapshot rebuild.
	Mutate PhaseStats
}

// Survey is a reusable triangle survey over one DODGr. Construct outside a
// parallel region (handlers are registered); Run as many times as desired,
// then Close to release the handlers and, with them, the survey's state.
// It is the kernel's full-traversal view: every ⟨p,q⟩ with q ∈ Adj⁺(p) is a
// wedge source, the <+-suffix of Adj⁺ᵐ(p) after q is its candidate list,
// and every triangle goes to the callback.
type Survey[VM, EM any] struct {
	g    *graph.DODGr[VM, EM]
	w    *ygm.World
	cb   Callback[VM, EM]
	plan planFilters[EM]
	k    kernel

	hPush, hPull ygm.HandlerID
	closed       bool

	state []surveyRank[VM, EM]
}

type pullEntry[EM any] struct {
	id  uint64
	deg uint32
	em  EM
}

// surveyRank is one rank's view-side scratch.
type surveyRank[VM, EM any] struct {
	// filteredAdj memoizes pullLen's edge-filtered adjacency length per
	// local vertex for one Run: hubs receive up to ranks−1 proposes.
	filteredAdj map[int32]int32

	scratchTri  Triangle[VM, EM]
	scratchPull []pullEntry[EM]
}

// NewSurvey prepares a survey of g invoking cb on every triangle. cb may be
// nil for pure counting (Result.Triangles is maintained either way). The
// survey holds four handlers on g's world until Close.
func NewSurvey[VM, EM any](g *graph.DODGr[VM, EM], opts Options, cb Callback[VM, EM]) *Survey[VM, EM] {
	s := &Survey[VM, EM]{g: g, w: g.World(), cb: cb}
	s.state = make([]surveyRank[VM, EM], s.w.Size())
	s.hPush = s.w.RegisterHandler(s.onPush)
	s.k.init(s.w, g.Owner, opts, s)
	s.hPull = s.w.RegisterHandler(s.onPull)
	return s
}

// NewPlannedSurvey prepares a survey restricted to plan-matching triangles,
// with the plan's predicates pushed into every communication phase (see
// Plan). A nil or empty plan degenerates to NewSurvey. The only error is an
// invalid plan (Plan.Validate).
func NewPlannedSurvey[VM, EM any](g *graph.DODGr[VM, EM], opts Options, plan *Plan[EM], cb Callback[VM, EM]) (*Survey[VM, EM], error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	s := NewSurvey(g, opts, cb)
	if plan != nil {
		s.plan = plan.compile()
	}
	return s, nil
}

// Close releases the survey's handlers, so the world no longer reaches the
// survey and the next registrations reuse its ids. Like construction it
// runs outside parallel regions, and every process of a multi-process
// world closes its copy at the same point. Closing twice is a no-op; Run
// after Close is not allowed.
func (s *Survey[VM, EM]) Close() {
	if s.closed {
		return
	}
	s.closed = true
	// Reverse registration order: the next survey gets the same ids.
	s.w.ReleaseHandlers(s.hPull, s.k.hDecline, s.k.hPropose, s.hPush)
}

// Run executes the survey collectively and returns aggregate statistics.
// It must be called outside parallel regions; it resets the world's
// communication statistics to attribute traffic per phase.
func (s *Survey[VM, EM]) Run() Result {
	for i := range s.state {
		clear(s.state[i].filteredAdj)
	}
	s.w.ResetStats()
	res := Result{Mode: s.k.mode, Ordering: s.g.Ordering().String(), Planned: s.plan.active}
	t0 := time.Now()
	var prev ygm.Stats
	s.k.run(&res, &prev)
	res.Total = time.Since(t0)
	return res
}

// dryRun parks every ⟨p,q⟩ under q with its suffix length as the proposed
// volume, and remembers where it lives so a granted pull is served locally.
//
// Under a plan, wedges the pushdown filters would fully eliminate — the
// (p,q) edge fails the edge filter, or no suffix candidate survives the
// candidate filter — are never parked, and so never proposed: their true
// push cost is zero. Surviving wedges propose their *unfiltered* suffix
// length (a cheap upper bound on the materialized push — the survival scan
// early-exits at the first passing candidate, keeping the dry run
// O(out-degree) except for fully-pruned wedges).
func (s *Survey[VM, EM]) dryRun(r *ygm.Rank, k *kernelRank) {
	f := &s.plan
	verts := s.g.LocalVertices(r)
	sources := 0
	for vi := range verts {
		sources += max(len(verts[vi].Adj)-1, 0)
	}
	k.reserve(sources)
	for vi := range verts {
		p := &verts[vi]
		for j := 0; j+1 < len(p.Adj); j++ {
			q := &p.Adj[j]
			rest := p.Adj[j+1:]
			if f.active && !(f.edge(q.EMeta) && anyOutCand(f, q.EMeta, rest)) {
				k.pruned(len(rest))
				continue
			}
			k.park(q.Target, uint64(len(rest)), reqRef{vert: int32(vi), pos: int32(j)})
		}
	}
}

// anyOutCand reports whether some candidate of rest survives f's candidate
// filter for a wedge with edge metadata em.
func anyOutCand[VM, EM any](f *planFilters[EM], em EM, rest []graph.OutEdge[VM, EM]) bool {
	for c := range rest {
		if f.cand(em, rest[c].EMeta) {
			return true
		}
	}
	return false
}

// --- Push phase (Alg. 1; §4.3) -----------------------------------------

// push streams, for every local pivot p and every q ∈ Adj⁺(p) that pushes,
// the <+-suffix of Adj⁺ᵐ(p) after q to Rank(q), where onPush intersects it
// with Adj⁺ᵐ(q).
//
// Under a plan, the pushdown happens here: a batch whose (p,q) edge fails
// the edge filter is never enqueued, candidates failing the candidate
// filter are dropped before encoding (the surviving subsequence stays
// sorted, so onPush's merge path is untouched), and a batch whose suffix
// empties is never enqueued either.
func (s *Survey[VM, EM]) push(r *ygm.Rank, k *kernelRank) {
	f := &s.plan
	emC, vmC := s.g.EdgeCodec(), s.g.VertexCodec()
	verts := s.g.LocalVertices(r)
	for vi := range verts {
		p := &verts[vi]
		for j := 0; j+1 < len(p.Adj); j++ {
			q := &p.Adj[j]
			rest := p.Adj[j+1:]
			if f.active && !f.edge(q.EMeta) {
				k.pruned(len(rest))
				continue
			}
			if !k.pushes(q.Target) {
				continue // granted pull: the pull phase covers this wedge batch
			}
			// Survivors are recorded in one predicate pass: the encode loop
			// must not re-evaluate user predicates, both for speed and so an
			// impure WhereEdge cannot desynchronize the encoded entry count
			// from the header.
			var keep []int32 // nil: every candidate
			if f.active {
				keep = k.scratchKeep[:0]
				for c := range rest {
					if f.cand(q.EMeta, rest[c].EMeta) {
						keep = append(keep, int32(c))
					}
				}
				k.scratchKeep = keep
				if len(keep) == 0 {
					k.pruned(len(rest))
					continue
				}
				k.prunedCands += uint64(len(rest) - len(keep))
			}
			e := r.Begin(s.g.Owner(q.Target), s.hPush)
			e.PutUvarint(p.ID)
			vmC.Encode(e, p.Meta)
			e.PutUvarint(q.Target)
			emC.Encode(e, q.EMeta)
			encodeOut(e, emC, rest, keep)
			r.Commit(e)
		}
	}
}

// encodeOut writes adjacency entries as a candidate list: uvarint(count),
// then per entry uvarint(id), uvarint(order-key degree gap) and the edge
// metadata. keep selects entries by index; nil writes all of adj.
//
// Entries carry (r, d(r), meta(p,r)) but not meta(r): the receiver already
// stores meta(r) for any r closing a triangle (§4.3: "this extra metadata
// is never actually transmitted"). d(r) is sent as the gap from the
// previous entry's — adj is sorted by order key, so TOrd is non-decreasing
// and the gaps are near-zero varints where absolute values (hub degrees)
// routinely cost multiple bytes.
func encodeOut[VM, EM any](e *serialize.Encoder, emC serialize.Codec[EM], adj []graph.OutEdge[VM, EM], keep []int32) {
	n := len(adj)
	if keep != nil {
		n = len(keep)
	}
	e.PutUvarint(uint64(n))
	prevOrd := uint32(0)
	for i := 0; i < n; i++ {
		o := &adj[i]
		if keep != nil {
			o = &adj[keep[i]]
		}
		e.PutUvarint(o.Target)
		e.PutUvarint(uint64(o.TOrd - prevOrd))
		prevOrd = o.TOrd
		emC.Encode(e, o.EMeta)
	}
}

// onPush runs at Rank(q): a streaming merge-path intersection of the
// received candidate list (sorted, a suffix of Adj⁺ᵐ(p)) against Adj⁺ᵐ(q).
// Each match is a triangle Δpqr; all six metadata items are on hand —
// meta(p), meta(p,q), meta(p,r) from the message, meta(q), meta(q,r),
// meta(r) from local storage (§4.3).
func (s *Survey[VM, EM]) onPush(r *ygm.Rank, d *serialize.Decoder) {
	k := &s.k.ranks[r.ID()]
	emC, vmC := s.g.EdgeCodec(), s.g.VertexCodec()

	pid := d.Uvarint()
	metaP := vmC.Decode(d)
	qid := d.Uvarint()
	metaPQ := emC.Decode(d)
	count := int(d.Uvarint())
	if d.Err() != nil {
		panic("core: corrupt push header: " + d.Err().Error())
	}
	q, ok := s.g.Lookup(r, qid)
	if !ok {
		panic("core: push for vertex not stored at its owner")
	}
	adj := q.Adj
	j := 0
	cdeg := uint32(0)
	for i := 0; i < count; i++ {
		cid := d.Uvarint()
		cdeg += uint32(d.Uvarint())
		metaPR := emC.Decode(d)
		if d.Err() != nil {
			panic("core: corrupt push candidate: " + d.Err().Error())
		}
		j = gallopOutKey(adj, j, graph.KeyOf(cdeg, cid))
		k.wedgeChecks++
		if j < len(adj) && adj[j].Target == cid {
			o := &adj[j]
			j++
			// With a plan, the source's checks were necessary conditions
			// only; the full predicate runs here on all three edge metas.
			if s.plan.active && !s.plan.tri(metaPQ, metaPR, o.EMeta) {
				continue
			}
			k.triangles++
			s.emit(r, pid, metaP, qid, q.Meta, cid, o.TMeta, metaPQ, metaPR, o.EMeta)
		}
	}
}

// emit hands triangle Δpqr to the callback, if any.
func (s *Survey[VM, EM]) emit(r *ygm.Rank, p uint64, mp VM, q uint64, mq VM, rr uint64, mr VM, epq, epr, eqr EM) {
	if s.cb == nil {
		return
	}
	t := &s.state[r.ID()].scratchTri
	t.P, t.Q, t.R = p, q, rr
	t.MetaP, t.MetaQ, t.MetaR = mp, mq, mr
	t.MetaPQ, t.MetaPR, t.MetaQR = epq, epr, eqr
	s.cb(r, t)
}

// --- Pull phase (§4.4) ---------------------------------------------------

// pullLen is the pull side's cost: |Adj⁺ᵐ(q)|, or under an edge-level
// filter the entries that pass it, memoized per local vertex for one Run
// (hubs are asked once per proposing rank).
func (s *Survey[VM, EM]) pullLen(r *ygm.Rank, q uint64) (int32, int) {
	vi := s.g.LocalIndex(r, q)
	if vi < 0 {
		panic("core: propose for vertex not stored at its owner")
	}
	adj := s.g.LocalVertices(r)[vi].Adj
	if !s.plan.hasEdge {
		return vi, len(adj)
	}
	st := &s.state[r.ID()]
	if st.filteredAdj == nil {
		st.filteredAdj = make(map[int32]int32)
	}
	if n, ok := st.filteredAdj[vi]; ok {
		return vi, int(n)
	}
	n := 0
	for c := range adj {
		if s.plan.edge(adj[c].EMeta) {
			n++
		}
	}
	st.filteredAdj[vi] = int32(n)
	return vi, n
}

// pull ships a granted Adj⁺ᵐ(q) to each granting source, where onPull
// completes every wedge batch parked there during the dry run. Target
// vertex metadata of pulled entries is not transmitted: the puller already
// stores meta(r) for every candidate r in its own Adj⁺ᵐ(p) (the same
// redundancy §4.3 notes for pushes). Under a plan with an edge-level
// filter, entries whose (q,r) edge cannot appear in any matching triangle
// are omitted (the filtered subsequence stays sorted); a reply that would
// carry no entries is not sent at all — the parked wedges at the source
// can close no triangle.
func (s *Survey[VM, EM]) pull(r *ygm.Rank, k *kernelRank, vi int32, srcs []int32) {
	f := &s.plan
	q := &s.g.LocalVertices(r)[vi]
	// One predicate pass per vertex (not per reply): the survivor set is
	// identical across granting sources, and encoding from the recorded
	// indices keeps the header count and the payload in sync even under an
	// impure WhereEdge (same invariant as push).
	var keep []int32 // nil: every entry
	if f.hasEdge {
		keep = k.scratchKeep[:0]
		for c := range q.Adj {
			if f.edge(q.Adj[c].EMeta) {
				keep = append(keep, int32(c))
			}
		}
		k.scratchKeep = keep
		k.prunedPull += uint64((len(q.Adj) - len(keep)) * len(srcs))
		if len(keep) == 0 {
			return
		}
	}
	emC, vmC := s.g.EdgeCodec(), s.g.VertexCodec()
	for _, src := range srcs {
		e := r.Begin(int(src), s.hPull)
		e.PutUvarint(q.ID)
		vmC.Encode(e, q.Meta)
		encodeOut(e, emC, q.Adj, keep)
		r.Commit(e)
	}
}

// onPull runs back at the source rank (the rank that hosts the pivots):
// intersect the pulled Adj⁺ᵐ(q) against every parked local suffix for q.
// The callback fires at Rank(p) here — metadata colocation still holds:
// meta(p), meta(p,q), meta(p,r), meta(r) are local, meta(q) and meta(q,r)
// arrive with the pull.
func (s *Survey[VM, EM]) onPull(r *ygm.Rank, d *serialize.Decoder) {
	k := &s.k.ranks[r.ID()]
	st := &s.state[r.ID()]
	emC, vmC := s.g.EdgeCodec(), s.g.VertexCodec()

	qid := d.Uvarint()
	metaQ := vmC.Decode(d)
	count := int(d.Uvarint())
	if d.Err() != nil {
		panic("core: corrupt pull header: " + d.Err().Error())
	}
	pulled := st.scratchPull[:0]
	deg := uint32(0)
	for i := 0; i < count; i++ {
		id := d.Uvarint()
		deg += uint32(d.Uvarint())
		pulled = append(pulled, pullEntry[EM]{id: id, deg: deg, em: emC.Decode(d)})
		if d.Err() != nil {
			panic("core: corrupt pull entry: " + d.Err().Error())
		}
	}
	st.scratchPull = pulled

	f := &s.plan
	verts := s.g.LocalVertices(r)
	for _, ref := range k.parkedFor(qid) {
		p := &verts[ref.vert]
		suffix := p.Adj[ref.pos+1:]
		metaPQ := p.Adj[ref.pos].EMeta
		j := 0
		for i := range suffix {
			c := &suffix[i]
			// Mirror of the push side's candidate pushdown: a filtered
			// candidate is skipped without advancing the merge cursor.
			if f.active && !f.cand(metaPQ, c.EMeta) {
				k.prunedCands++
				continue
			}
			j = gallopPullKey(pulled, j, c.Key())
			k.wedgeChecks++
			if j < len(pulled) && pulled[j].id == c.Target {
				pe := &pulled[j]
				j++
				if f.active && !f.tri(metaPQ, c.EMeta, pe.em) {
					continue
				}
				k.triangles++
				s.emit(r, p.ID, p.Meta, qid, metaQ, c.Target, c.TMeta, metaPQ, c.EMeta, pe.em)
			}
		}
	}
}

func keyOfPull[EM any](p *pullEntry[EM]) graph.OrderKey {
	return graph.KeyOf(p.deg, p.id)
}
