package baseline

import (
	"sort"
	"time"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// Result summarizes a distributed baseline run in the units Table 2 and
// Table 4 report.
type Result struct {
	Triangles uint64
	Duration  time.Duration
	Bytes     int64
	Messages  int64
}

// WedgeQueryCount reproduces the communication pattern of Pearce et al.
// [42]: vertices are degree-ordered, and every wedge (p; q, r) becomes an
// individual closure query sent to Rank(q) asking whether the directed edge
// (q, r) exists. Message count is Θ(|W⁺|) — the pattern TriPoll's batched
// adjacency pushes improve on.
func WedgeQueryCount[VM, EM any](g *graph.DODGr[VM, EM]) Result {
	w := g.World()
	counts := make([]uint64, w.Size())
	h := w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		q := d.Uvarint()
		rid := d.Uvarint()
		rdeg := uint32(d.Uvarint())
		if d.Err() != nil {
			panic("baseline: corrupt wedge query: " + d.Err().Error())
		}
		v, ok := g.Lookup(r, q)
		if !ok {
			panic("baseline: wedge query for unknown vertex")
		}
		key := graph.KeyOf(rdeg, rid)
		adj := v.Adj
		i := sort.Search(len(adj), func(i int) bool { return !adj[i].Key().Less(key) })
		if i < len(adj) && adj[i].Target == rid {
			counts[r.ID()]++
		}
	})
	defer w.ReleaseHandlers(h)
	w.ResetStats()
	start := time.Now()
	w.Parallel(func(r *ygm.Rank) {
		for vi := range g.LocalVertices(r) {
			p := &g.LocalVertices(r)[vi]
			for i := 0; i+1 < len(p.Adj); i++ {
				q := p.Adj[i].Target
				owner := g.Owner(q)
				for _, c := range p.Adj[i+1:] {
					e := r.Enc()
					e.PutUvarint(q)
					e.PutUvarint(c.Target)
					e.PutUvarint(uint64(c.TOrd))
					r.Async(owner, h, e)
				}
			}
		}
	})
	dur := time.Since(start)
	var total uint64
	for _, c := range counts {
		total += c
	}
	st := w.Stats()
	return Result{Triangles: total, Duration: dur, Bytes: st.BytesSent, Messages: st.MessagesSent}
}

// ReplicatedCount reproduces the throughput-oriented design attributed to
// Tom et al. [58] in §5.6: every rank receives a full replica of G⁺
// (broadcast over the wire, so the replication cost is visible as
// communication volume), then counts a disjoint slice of pivots with zero
// further communication. Fast at small scale; memory and broadcast volume
// grow linearly with world size — the scalability ceiling the paper
// observed ("unable to get their code to run with more than 1024 ranks").
func ReplicatedCount[VM, EM any](g *graph.DODGr[VM, EM]) Result {
	w := g.World()
	n := w.Size()
	type repVert struct {
		adj []graph.OrderKey
	}
	replicas := make([]map[uint64]*repVert, n)
	for i := range replicas {
		replicas[i] = make(map[uint64]*repVert)
	}
	h := w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		id := d.Uvarint()
		cnt := int(d.Uvarint())
		rv := &repVert{adj: make([]graph.OrderKey, 0, cnt)}
		for i := 0; i < cnt; i++ {
			tid := d.Uvarint()
			tdeg := uint32(d.Uvarint())
			rv.adj = append(rv.adj, graph.KeyOf(tdeg, tid))
		}
		if d.Err() != nil {
			panic("baseline: corrupt replica message: " + d.Err().Error())
		}
		replicas[r.ID()][id] = rv
	})
	defer w.ReleaseHandlers(h)
	w.ResetStats()
	start := time.Now()

	// Broadcast phase: each rank ships every local adjacency list to all
	// ranks (including itself, for uniform accounting).
	w.Parallel(func(r *ygm.Rank) {
		for vi := range g.LocalVertices(r) {
			v := &g.LocalVertices(r)[vi]
			for dest := 0; dest < n; dest++ {
				e := r.Enc()
				e.PutUvarint(v.ID)
				e.PutUvarint(uint64(len(v.Adj)))
				for k := range v.Adj {
					e.PutUvarint(v.Adj[k].Target)
					e.PutUvarint(uint64(v.Adj[k].TOrd))
				}
				r.Async(dest, h, e)
			}
		}
	})

	// Local counting phase: rank i handles pivots with mix64(id) ≡ i.
	counts := make([]uint64, n)
	w.Parallel(func(r *ygm.Rank) {
		rep := replicas[r.ID()]
		var local uint64
		for id, rv := range rep {
			// Pivot ownership decorrelated from the storage partitioner.
			if int(graph.Mix64(id^0x5bd1e995)%uint64(n)) != r.ID() {
				continue
			}
			adj := rv.adj
			for i := 0; i+1 < len(adj); i++ {
				qv, ok := rep[adj[i].ID]
				if !ok {
					continue
				}
				local += intersectKeys(qv.adj, adj[i+1:])
			}
		}
		counts[r.ID()] = local
	})
	dur := time.Since(start)
	var total uint64
	for _, c := range counts {
		total += c
	}
	st := w.Stats()
	return Result{Triangles: total, Duration: dur, Bytes: st.BytesSent, Messages: st.MessagesSent}
}

func intersectKeys(qa []graph.OrderKey, candidates []graph.OrderKey) uint64 {
	var nmatch uint64
	k := 0
	for _, c := range candidates {
		for k < len(qa) && qa[k].Less(c) {
			k++
		}
		if k < len(qa) && qa[k] == c {
			nmatch++
			k++
		}
	}
	return nmatch
}

// EdgeCentricCount reproduces the TriC [20] pattern: G⁺ edges are
// redistributed into edge-balanced partitions; each rank resolves its edges
// (p, q) by fetching Adj⁺(p) and Adj⁺(q) from their owners (once per
// distinct vertex per rank — the batch-oriented fetch with caching), then
// counts |Adj⁺(p) ∩ Adj⁺(q)| locally. Every triangle is charged to its base
// edge (its two <+-smallest vertices), so each is counted exactly once.
func EdgeCentricCount[VM, EM any](g *graph.DODGr[VM, EM]) Result {
	w := g.World()
	n := w.Size()
	type fetchState struct {
		edges [][2]uint64                 // owned (p, q) pairs
		cache map[uint64][]graph.OrderKey // vertex → Adj⁺ keys
	}
	states := make([]*fetchState, n)
	for i := range states {
		states[i] = &fetchState{cache: make(map[uint64][]graph.OrderKey)}
	}

	// hEdge: receive an owned edge. hReq: adjacency request → reply with
	// hRep carrying the full out-list.
	hEdge := w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		p := d.Uvarint()
		q := d.Uvarint()
		if d.Err() != nil {
			panic("baseline: corrupt edge message: " + d.Err().Error())
		}
		states[r.ID()].edges = append(states[r.ID()].edges, [2]uint64{p, q})
	})
	var hRep ygm.HandlerID
	hReq := w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		id := d.Uvarint()
		home := int(d.Uvarint())
		if d.Err() != nil {
			panic("baseline: corrupt adjacency request: " + d.Err().Error())
		}
		v, ok := g.Lookup(r, id)
		if !ok {
			panic("baseline: adjacency request for unknown vertex")
		}
		e := r.Enc()
		e.PutUvarint(id)
		e.PutUvarint(uint64(len(v.Adj)))
		for k := range v.Adj {
			e.PutUvarint(v.Adj[k].Target)
			e.PutUvarint(uint64(v.Adj[k].TOrd))
		}
		r.Async(home, hRep, e)
	})
	hRep = w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		id := d.Uvarint()
		cnt := int(d.Uvarint())
		adj := make([]graph.OrderKey, 0, cnt)
		for i := 0; i < cnt; i++ {
			tid := d.Uvarint()
			tdeg := uint32(d.Uvarint())
			adj = append(adj, graph.KeyOf(tdeg, tid))
		}
		if d.Err() != nil {
			panic("baseline: corrupt adjacency reply: " + d.Err().Error())
		}
		states[r.ID()].cache[id] = adj
	})
	defer w.ReleaseHandlers(hRep, hReq, hEdge)

	w.ResetStats()
	start := time.Now()

	// Redistribute G⁺ edges round-robin for edge balance.
	w.Parallel(func(r *ygm.Rank) {
		i := 0
		for vi := range g.LocalVertices(r) {
			v := &g.LocalVertices(r)[vi]
			for k := range v.Adj {
				e := r.Enc()
				e.PutUvarint(v.ID)
				e.PutUvarint(v.Adj[k].Target)
				r.Async((r.ID()+i)%n, hEdge, e)
				i++
			}
		}
	})
	// Fetch phase: request each distinct endpoint's adjacency once.
	w.Parallel(func(r *ygm.Rank) {
		st := states[r.ID()]
		requested := make(map[uint64]bool)
		ask := func(v uint64) {
			if requested[v] {
				return
			}
			requested[v] = true
			e := r.Enc()
			e.PutUvarint(v)
			e.PutUvarint(uint64(r.ID()))
			r.Async(g.Owner(v), hReq, e)
		}
		for _, pq := range st.edges {
			ask(pq[0])
			ask(pq[1])
		}
	})
	// Count phase: purely local.
	counts := make([]uint64, n)
	w.Parallel(func(r *ygm.Rank) {
		st := states[r.ID()]
		var local uint64
		for _, pq := range st.edges {
			pa, qa := st.cache[pq[0]], st.cache[pq[1]]
			local += intersectKeys(qa, pa)
		}
		counts[r.ID()] = local
	})
	dur := time.Since(start)
	var total uint64
	for _, c := range counts {
		total += c
	}
	st := w.Stats()
	return Result{Triangles: total, Duration: dur, Bytes: st.BytesSent, Messages: st.MessagesSent}
}
