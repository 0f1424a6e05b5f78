package core

import (
	"cmp"
	"slices"
	"time"

	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// The traversal kernel: the paper's dry run, push and pull (§4.3–4.4),
// written once for the full survey (Survey) and the stream's delta
// traversal (Stream). A wedgeView supplies what differs — the wedge
// sources, the adjacency with its candidate codec and intersection, and
// triangle dispatch — and the kernel owns the rest: the negotiation state
// and its reset, the propose loop, the pull-grant rule, the decline
// handler, per-phase accounting and the fold of per-rank counters into a
// Result. Per-candidate loops stay in the views, free of interface calls.

// wedgeView is one traversal's side of the kernel. Its push and pull
// payloads, and the handlers that intersect them, are its own.
type wedgeView interface {
	// dryRun parks each of rank r's wedge sources (k.park), or counts it as
	// pruned when the plan eliminates it (k.pruned).
	dryRun(r *ygm.Rank, k *kernelRank)
	// push ships the candidates of every wedge source whose target pushes
	// (k.pushes) to the target's owner.
	push(r *ygm.Rank, k *kernelRank)
	// pullLen resolves proposed target q at its owner: its local index and
	// the length of the adjacency a pull reply for it would carry.
	pullLen(r *ygm.Rank, q uint64) (vi int32, n int)
	// pull ships local vertex vi's adjacency to each granting source rank.
	pull(r *ygm.Rank, k *kernelRank, vi int32, srcs []int32)
}

// reqRef locates a wedge source on the rank that parked it: the local
// index of its pivot and the adjacency position of its target.
type reqRef struct {
	vert int32
	pos  int32
}

// parkRec is one parked wedge source and the group of its target.
type parkRec struct {
	group int32
	ref   reqRef
}

// grant is one pull grant received at a target's owner: the target's local
// index and the source rank that proposed it.
type grant struct {
	vi, src int32
}

// kernelRank is one rank's traversal state. The negotiation lives in flat,
// pointer-free arenas that each run truncates and refills: a target's
// first park opens its group, and groups number targets in first-park
// order, so proposes go out in a fixed order with no map iteration.
type kernelRank struct {
	group    map[uint64]int32 // target vertex → group
	targets  []uint64         // group → target vertex
	vols     []uint64         // group → proposed push volume
	declined []bool           // group → owner declined the pull
	recs     []parkRec        // parked wedge sources, in park order

	// The parked wedge sources grouped by target: group g's sources are
	// parked[start[g]:start[g+1]], in park order.
	start  []int32
	parked []reqRef

	grants []grant // pull grants received, grouped by target before the pull
	srcs   []int32 // one granted target's source ranks, handed to view.pull

	// negotiated is set once the dry run has walked the wedge sources.
	negotiated bool

	numGrants     uint64
	triangles     uint64
	wedgeChecks   uint64
	prunedBatches uint64
	prunedCands   uint64
	prunedPull    uint64

	scratchKeep []int32 // surviving-candidate indices of the batch being built
}

// reset empties the rank's state for a new run, keeping every arena's
// capacity: repeated surveys and long-lived streams would otherwise pay
// fresh allocations per rank per run.
func (k *kernelRank) reset() {
	clear(k.group)
	*k = kernelRank{
		group: k.group, targets: k.targets[:0], vols: k.vols[:0], declined: k.declined[:0],
		recs: k.recs[:0], start: k.start[:0], parked: k.parked[:0], grants: k.grants[:0],
		srcs: k.srcs[:0], scratchKeep: k.scratchKeep,
	}
}

// reserve sizes the park arenas for up to n wedge sources, once: a view
// calls it before its dry run with its source count.
func (k *kernelRank) reserve(n int) {
	if cap(k.recs) < n {
		k.recs = make([]parkRec, 0, n)
		k.parked = make([]reqRef, 0, n)
	}
}

// park records a wedge source that would push vol candidates to target q;
// a source with none closes no triangle and is not negotiated.
func (k *kernelRank) park(q, vol uint64, ref reqRef) {
	if vol == 0 {
		return
	}
	g, ok := k.group[q]
	if !ok {
		g = int32(len(k.targets))
		k.group[q] = g
		k.targets = append(k.targets, q)
		k.vols = append(k.vols, 0)
	}
	k.vols[g] += vol
	k.recs = append(k.recs, parkRec{group: g, ref: ref})
}

// groupParked counting-sorts the park records by group into parked and
// sizes declined; it runs before the first propose leaves the rank.
func (k *kernelRank) groupParked() {
	n := len(k.targets)
	k.declined = append(k.declined[:0], make([]bool, n)...)
	k.start = append(k.start[:0], make([]int32, n+1)...)
	for _, rec := range k.recs {
		k.start[rec.group]++
	}
	sum := int32(0)
	for g := range n {
		sum, k.start[g] = sum+k.start[g], sum
	}
	k.parked = k.parked[:len(k.recs)]
	for _, rec := range k.recs {
		k.parked[k.start[rec.group]] = rec.ref
		k.start[rec.group]++
	}
	// start[g] now ends group g; shift it to begin group g.
	copy(k.start[1:], k.start[:n])
	k.start[0] = 0
}

// parkedFor returns the wedge sources parked under target q.
func (k *kernelRank) parkedFor(q uint64) []reqRef {
	g, ok := k.group[q]
	if !ok {
		return nil
	}
	return k.parked[k.start[g]:k.start[g+1]]
}

// pushes reports whether the wedge sources targeting q push: always under
// Push-Only, and under Push-Pull when q's owner declined the pull.
func (k *kernelRank) pushes(q uint64) bool {
	if !k.negotiated {
		return true
	}
	g, ok := k.group[q]
	return ok && k.declined[g]
}

// pruned counts a wedge source the plan eliminates, with its n candidates.
// The dry run and the push both walk every source; the first counts it.
func (k *kernelRank) pruned(n int) {
	if !k.negotiated {
		k.prunedBatches++
		k.prunedCands += uint64(n)
	}
}

// kernel runs the three phases over one view on one world.
type kernel struct {
	w          *ygm.World
	owner      func(v uint64) int // rank storing v
	view       wedgeView
	mode       Mode
	pullFactor float64
	ranks      []kernelRank

	hPropose, hDecline ygm.HandlerID
}

// init binds k to view over the vertex placement owner and registers the
// negotiation handlers on w. Outside parallel regions.
func (k *kernel) init(w *ygm.World, owner func(uint64) int, opts Options, view wedgeView) {
	// Not `== 0`: a negative (or NaN) factor would flip the pull-grant
	// inequality and grant pulls to exactly the targets that should push.
	if !(opts.PullFactor > 0) {
		opts.PullFactor = 1.0
	}
	k.w, k.owner, k.view, k.mode, k.pullFactor = w, owner, view, opts.Mode, opts.PullFactor
	k.ranks = make([]kernelRank, w.Size())
	for i := range k.ranks {
		k.ranks[i].group = map[uint64]int32{}
	}
	k.hPropose = w.RegisterHandler(k.onPropose)
	k.hDecline = w.RegisterHandler(k.onDecline)
}

// run executes one traversal, adding each phase's time and traffic (since
// *prev) to res and folding the per-rank counters into it — world-wide in
// a multi-process world.
func (k *kernel) run(res *Result, prev *ygm.Stats) {
	for i := range k.ranks {
		k.ranks[i].reset()
	}
	if k.mode == PushPull {
		k.phase(prev, &res.DryRun, k.dryRun)
	}
	k.phase(prev, &res.Push, func(r *ygm.Rank) { k.view.push(r, &k.ranks[r.ID()]) })
	if k.mode == PushPull {
		k.phase(prev, &res.Pull, k.pull)
	}
	for i := range k.ranks {
		st := &k.ranks[i]
		res.Triangles += st.triangles
		res.PullsGranted += st.numGrants
		res.WedgeChecks += st.wedgeChecks
		res.PrunedBatches += st.prunedBatches
		res.PrunedCandidates += st.prunedCands
		res.PrunedPullEntries += st.prunedPull
		res.MaxRankWedgeChecks = max(res.MaxRankWedgeChecks, st.wedgeChecks)
	}
	if k.w.Distributed() {
		k.reduceResult(res)
		return
	}
	res.deriveRatios(k.w.Size())
}

// reduceResult folds every process's Result partials into world-wide
// totals so a multi-process traversal — a full survey or a stream delta —
// reports exactly what the equivalent single-process one would. Each
// process leader contributes its process partial to sum (or max)
// collectives; the other local ranks contribute zero but must participate
// — collectives are world-wide. Durations stay process-local: wall clock
// is machine-dependent and excluded from every determinism gate.
func (k *kernel) reduceResult(res *Result) {
	in := *res
	var out Result
	k.w.Parallel(func(r *ygm.Rank) {
		lead := r.ID() == k.w.LeaderID()
		cu := func(v uint64) uint64 {
			if lead {
				return v
			}
			return 0
		}
		sumI := func(v int64) int64 {
			if !lead {
				v = 0
			}
			return ygm.AllReduce(r, v, func(a, b int64) int64 { return a + b })
		}
		t := in
		t.Triangles = ygm.AllReduceSum(r, cu(in.Triangles))
		t.PullsGranted = ygm.AllReduceSum(r, cu(in.PullsGranted))
		t.WedgeChecks = ygm.AllReduceSum(r, cu(in.WedgeChecks))
		t.MaxRankWedgeChecks = ygm.AllReduceMax(r, cu(in.MaxRankWedgeChecks))
		t.PrunedBatches = ygm.AllReduceSum(r, cu(in.PrunedBatches))
		t.PrunedCandidates = ygm.AllReduceSum(r, cu(in.PrunedCandidates))
		t.PrunedPullEntries = ygm.AllReduceSum(r, cu(in.PrunedPullEntries))
		for _, ph := range []*PhaseStats{&t.DryRun, &t.Push, &t.Pull} {
			ph.Bytes = sumI(ph.Bytes)
			ph.Messages = sumI(ph.Messages)
			ph.Batches = sumI(ph.Batches)
		}
		if lead {
			out = t
		}
	})
	out.deriveRatios(k.w.Size())
	*res = out
}

// deriveRatios fills the per-rank averages from the folded totals.
func (res *Result) deriveRatios(ranks int) {
	res.AvgPullsPerRank = float64(res.PullsGranted) / float64(ranks)
	if res.MaxRankWedgeChecks > 0 {
		res.WorkBalance = float64(res.WedgeChecks) / (float64(ranks) * float64(res.MaxRankWedgeChecks))
	}
}

// phase runs body as one parallel region and charges it to dst.
func (k *kernel) phase(prev *ygm.Stats, dst *PhaseStats, body func(r *ygm.Rank)) {
	start := time.Now()
	k.w.Parallel(body)
	k.account(prev, dst, start)
}

// account adds the time since start and the traffic since *prev to dst,
// then advances *prev; one PhaseStats may span several regions.
func (k *kernel) account(prev *ygm.Stats, dst *PhaseStats, start time.Time) {
	dst.Duration += time.Since(start)
	now := k.w.Stats()
	d := now.Sub(*prev)
	*prev = now
	dst.Bytes += d.BytesSent
	dst.Messages += d.MessagesSent
	dst.Batches += d.BatchesSent
}

// dryRun (§4.4, "Push vs Pull Dry-Run") parks the rank's wedge sources
// without moving adjacency data and proposes each target's aggregate push
// volume to the target's owner.
func (k *kernel) dryRun(r *ygm.Rank) {
	st := &k.ranks[r.ID()]
	k.view.dryRun(r, st)
	st.groupParked()
	st.negotiated = true
	for g, q := range st.targets {
		e := r.Begin(k.owner(q), k.hPropose)
		e.PutUvarint(q)
		e.PutUvarint(st.vols[g])
		e.PutUvarint(uint64(r.ID()))
		r.Commit(e)
	}
}

// onPropose runs at the target's owner: grant the pull when sending the
// target's adjacency once beats receiving the proposed volume, otherwise
// decline so the source pushes.
func (k *kernel) onPropose(r *ygm.Rank, d *serialize.Decoder) {
	q := d.Uvarint()
	vol := d.Uvarint()
	src := int(d.Uvarint())
	if d.Err() != nil {
		panic("core: corrupt propose message: " + d.Err().Error())
	}
	st := &k.ranks[r.ID()]
	vi, n := k.view.pullLen(r, q)
	if float64(n)*k.pullFactor < float64(vol) {
		st.grants = append(st.grants, grant{vi: vi, src: int32(src)})
		st.numGrants++
		return
	}
	e := r.Begin(src, k.hDecline)
	e.PutUvarint(q)
	r.Commit(e)
}

func (k *kernel) onDecline(r *ygm.Rank, d *serialize.Decoder) {
	q := d.Uvarint()
	if d.Err() != nil {
		panic("core: corrupt decline message: " + d.Err().Error())
	}
	st := &k.ranks[r.ID()]
	g, ok := st.group[q]
	if !ok {
		panic("core: decline for a target this rank never proposed")
	}
	st.declined[g] = true
}

// pull (§4.4) ships each granted adjacency once per (vertex, source rank),
// in (vertex, source rank) order.
func (k *kernel) pull(r *ygm.Rank) {
	st := &k.ranks[r.ID()]
	slices.SortFunc(st.grants, func(a, b grant) int {
		if a.vi != b.vi {
			return cmp.Compare(a.vi, b.vi)
		}
		return cmp.Compare(a.src, b.src)
	})
	for i := 0; i < len(st.grants); {
		vi := st.grants[i].vi
		st.srcs = st.srcs[:0]
		for ; i < len(st.grants) && st.grants[i].vi == vi; i++ {
			st.srcs = append(st.srcs, st.grants[i].src)
		}
		k.view.pull(r, st, vi, st.srcs)
	}
}
