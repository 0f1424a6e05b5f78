package graph

import (
	"sort"

	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// Builder performs distributed graph construction. Usage (SPMD, inside one
// or more parallel regions):
//
//	b := graph.NewBuilder(w, vmCodec, emCodec, opts)   // outside regions
//	w.Parallel(func(r *ygm.Rank) {
//	    for each locally produced edge { b.AddEdge(r, u, v, em) }
//	    for each locally produced vertex { b.SetVertexMeta(r, v, vm) }
//	    g = b.Build(r)                                  // collective
//	})
//	b.Close()                                           // outside regions
//
// Build runs the construction pipeline of §4.2:
//
//  1. ingestion routes each undirected edge to both endpoint owners
//     (symmetrization), merging duplicate edges with MergeEdgeMeta — the
//     keep-chronologically-first reduction §5.2 applies to Reddit is
//     MergeEdgeMeta = min-by-timestamp;
//  2. every owner now knows d(u) for its vertices; each edge (u,v) is
//     walked once more, sending (v, u, d(u), meta(u,v), meta(u)) to
//     Rank(v), which appends u to Adj⁺ᵐ(v) iff v <+ u — every undirected
//     edge lands in G⁺ exactly once, at its <+-smaller endpoint;
//  3. adjacency lists are sorted by target order key, and global figures
//     (|V|, |E|, |W⁺|, d_max, d_max⁺) are reduced.
type Builder[VM, EM any] struct {
	w    *ygm.World
	part Partitioner
	vm   serialize.Codec[VM]
	em   serialize.Codec[EM]
	opts BuilderOptions[EM]

	ingest  []ingestState[VM, EM]
	peelSt  []peelState
	hEdge   ygm.HandlerID
	hVMeta  ygm.HandlerID
	hPeel   ygm.HandlerID
	hOrient ygm.HandlerID

	built  *DODGr[VM, EM] // assembled by Build; identical pointer on all ranks
	closed bool
}

// BuilderOptions configures construction.
type BuilderOptions[EM any] struct {
	// Partitioner places vertices on ranks; nil selects HashPartition.
	Partitioner Partitioner
	// Ordering selects the vertex order <+ that orients G into G⁺. The
	// zero value is OrderDegree, the paper's choice; OrderDegeneracy runs
	// an extra distributed k-core peel during Build and bounds every
	// out-degree by the graph's degeneracy.
	Ordering Ordering
	// MergeEdgeMeta combines metadata when the same undirected edge is
	// inserted more than once (multigraph reduction). It must be
	// commutative and associative so the result is independent of message
	// arrival order. Nil keeps an arbitrary duplicate's metadata.
	MergeEdgeMeta func(a, b EM) EM
}

// peelState is one rank's working state for the distributed k-core peel:
// residual degrees (neighbors not yet removed) and removal flags, indexed
// like rankLocal.verts. Decrements arriving from neighbor owners are
// buffered in pending — Async may opportunistically run handlers while
// the strip scan is mid-flight, and applying them immediately would let
// one subround observe its own removals, breaking the elimination bound.
// They are applied between the subround's barrier and the next scan.
type peelState struct {
	residual []uint32
	removed  []bool
	pending  []int32
}

type halfEdge[EM any] struct {
	nbr  uint64
	meta EM
}

type ingestState[VM, EM any] struct {
	half      map[uint64][]halfEdge[EM]
	vmeta     map[uint64]VM
	selfLoops uint64
	merged    uint64
}

// NewBuilder creates a builder; must be called outside parallel regions.
// The builder holds four handlers on w, and through them the graph it
// builds, until Close.
func NewBuilder[VM, EM any](w *ygm.World, vm serialize.Codec[VM], em serialize.Codec[EM], opts BuilderOptions[EM]) *Builder[VM, EM] {
	if opts.Partitioner == nil {
		opts.Partitioner = HashPartition{}
	}
	b := &Builder[VM, EM]{w: w, part: opts.Partitioner, vm: vm, em: em, opts: opts}
	b.ingest = make([]ingestState[VM, EM], w.Size())
	b.peelSt = make([]peelState, w.Size())
	for i := range b.ingest {
		b.ingest[i].half = make(map[uint64][]halfEdge[EM])
		b.ingest[i].vmeta = make(map[uint64]VM)
	}
	b.hEdge = w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		u := d.Uvarint()
		v := d.Uvarint()
		em := b.em.Decode(d)
		if d.Err() != nil {
			panic("graph: corrupt edge message: " + d.Err().Error())
		}
		st := &b.ingest[r.ID()]
		st.half[u] = append(st.half[u], halfEdge[EM]{nbr: v, meta: em})
	})
	b.hVMeta = w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		v := d.Uvarint()
		vm := b.vm.Decode(d)
		if d.Err() != nil {
			panic("graph: corrupt vertex-meta message: " + d.Err().Error())
		}
		b.ingest[r.ID()].vmeta[v] = vm
	})
	// Peel decrement: a neighbor of v was removed this subround. Buffered,
	// not applied — see peelState.pending.
	b.hPeel = w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		v := d.Uvarint()
		if d.Err() != nil {
			panic("graph: corrupt peel message: " + d.Err().Error())
		}
		i, ok := b.built.local[r.ID()].index[v]
		if !ok {
			panic("graph: peel decrement for unknown vertex")
		}
		ps := &b.peelSt[r.ID()]
		ps.pending = append(ps.pending, i)
	})
	// Orientation message: (v, u, ord(u), meta(u,v), meta(u)) appended to
	// Adj⁺ᵐ(v) iff v <+ u. The DODGr local shards are filled in place.
	b.hOrient = w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		v := d.Uvarint()
		u := d.Uvarint()
		ou := uint32(d.Uvarint())
		em := b.em.Decode(d)
		vm := b.vm.Decode(d)
		if d.Err() != nil {
			panic("graph: corrupt orientation message: " + d.Err().Error())
		}
		rl := &b.built.local[r.ID()]
		i, ok := rl.index[v]
		if !ok {
			panic("graph: orientation message for unknown vertex")
		}
		rec := &rl.verts[i]
		if Less(rec.Ord, v, ou, u) {
			rec.Adj = append(rec.Adj, OutEdge[VM, EM]{Target: u, TOrd: ou, EMeta: em, TMeta: vm})
		}
	})
	return b
}

// Close releases the builder's handlers once Build has returned on every
// rank. Build runs inside a parallel region, where handlers cannot be
// released, so the owner calls Close after the region; every process of a
// multi-process world closes its builder at the same point. Closing twice
// is a no-op.
func (b *Builder[VM, EM]) Close() {
	if b.closed {
		return
	}
	b.closed = true
	b.w.ReleaseHandlers(b.hOrient, b.hPeel, b.hVMeta, b.hEdge)
}

// AddEdge inserts the undirected edge {u, v} with metadata em. Self-loops
// are dropped (and counted). May be called from any rank; ownership routing
// is handled here.
func (b *Builder[VM, EM]) AddEdge(r *ygm.Rank, u, v uint64, em EM) {
	if u == v {
		b.ingest[r.ID()].selfLoops++
		return
	}
	b.sendHalf(r, u, v, em)
	b.sendHalf(r, v, u, em)
}

func (b *Builder[VM, EM]) sendHalf(r *ygm.Rank, u, v uint64, em EM) {
	e := r.Enc()
	e.PutUvarint(u)
	e.PutUvarint(v)
	b.em.Encode(e, em)
	r.Async(b.part.Owner(u, r.Size()), b.hEdge, e)
}

// SetVertexMeta records metadata for vertex v. Vertices never named by
// SetVertexMeta carry the zero value of VM.
func (b *Builder[VM, EM]) SetVertexMeta(r *ygm.Rank, v uint64, vm VM) {
	e := r.Enc()
	e.PutUvarint(v)
	b.vm.Encode(e, vm)
	r.Async(b.part.Owner(v, r.Size()), b.hVMeta, e)
}

// Build completes construction collectively and returns the immutable
// DODGr. All ranks must call it; every rank receives the same graph object.
// The builder must not be reused afterwards.
func (b *Builder[VM, EM]) Build(r *ygm.Rank) *DODGr[VM, EM] {
	r.Barrier() // ingestion settled everywhere

	// The process leader creates the shared graph object: in a
	// single-process world that is rank 0 (the historical behavior), in a
	// multi-process world every process builds its own DODGr holding its
	// local shards, with the global figures below identical everywhere by
	// virtue of coming from collectives.
	if r.ID() == b.w.LeaderID() {
		g := &DODGr[VM, EM]{w: b.w, part: b.part, vm: b.vm, em: b.em}
		g.local = make([]rankLocal[VM, EM], b.w.Size())
		b.built = g
	}
	ygm.Rendezvous(r)
	g := b.built

	// Local pass: collapse the half-edge multimap into deduplicated,
	// degree-known vertex records sorted by id (deterministic layout).
	st := &b.ingest[r.ID()]
	rl := &g.local[r.ID()]
	ids := make([]uint64, 0, len(st.half)+len(st.vmeta))
	for u := range st.half {
		ids = append(ids, u)
	}
	for u := range st.vmeta {
		if _, ok := st.half[u]; !ok {
			ids = append(ids, u) // isolated vertex with explicit metadata
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	rl.index = make(map[uint64]int32, len(ids))
	rl.verts = make([]Vertex[VM, EM], len(ids))
	var merged uint64
	for i, u := range ids {
		nbrs := st.half[u]
		sort.Slice(nbrs, func(a, c int) bool { return nbrs[a].nbr < nbrs[c].nbr })
		// Dedup-merge runs of the same neighbor.
		out := nbrs[:0]
		for _, h := range nbrs {
			if n := len(out); n > 0 && out[n-1].nbr == h.nbr {
				merged++
				if b.opts.MergeEdgeMeta != nil {
					out[n-1].meta = b.opts.MergeEdgeMeta(out[n-1].meta, h.meta)
				}
				continue
			}
			out = append(out, h)
		}
		st.half[u] = out
		rl.index[u] = int32(i)
		d := uint32(len(out))
		rl.verts[i] = Vertex[VM, EM]{ID: u, Deg: d, Ord: d, Meta: st.vmeta[u]}
	}
	// Each undirected edge is seen at both endpoints, so merged duplicates
	// are double-counted across the world; the global sum is halved below.
	localSelf := st.selfLoops
	localMerged := merged
	ygm.Rendezvous(r) // all records exist before orientation messages fly

	// Ordering pass: under OrderDegree every Ord already holds the degree;
	// OrderDegeneracy replaces Ord with the removal epoch of a distributed
	// k-core peel (the level reached is the graph's degeneracy).
	var degen uint32
	if b.opts.Ordering == OrderDegeneracy {
		degen = b.peel(r)
	}

	// Orientation pass: walk every local half-edge once, shipping the
	// source's ordering weight and metadata to the neighbor's owner.
	for i := range rl.verts {
		rec := &rl.verts[i]
		for _, h := range st.half[rec.ID] {
			e := r.Enc()
			e.PutUvarint(h.nbr)
			e.PutUvarint(rec.ID)
			e.PutUvarint(uint64(rec.Ord))
			b.em.Encode(e, h.meta)
			b.vm.Encode(e, rec.Meta)
			r.Async(b.part.Owner(h.nbr, r.Size()), b.hOrient, e)
		}
	}
	r.Barrier()

	// Release ingestion and peel memory before sorting adjacency lists.
	st.half = nil
	st.vmeta = nil
	b.peelSt[r.ID()] = peelState{}

	var localDirected, localPlus, localWedges uint64
	var localMaxDeg, localMaxOut uint32
	for i := range rl.verts {
		rec := &rl.verts[i]
		sort.Slice(rec.Adj, func(a, c int) bool { return rec.Adj[a].Key().Less(rec.Adj[c].Key()) })
		localDirected += uint64(rec.Deg)
		dp := uint64(len(rec.Adj))
		localPlus += dp
		localWedges += dp * (dp - 1) / 2
		if rec.Deg > localMaxDeg {
			localMaxDeg = rec.Deg
		}
		if uint32(dp) > localMaxOut {
			localMaxOut = uint32(dp)
		}
	}
	// Compact the shard's adjacency lists into one CSR-style arena so the
	// survey's sequential vertex sweep reads contiguous memory.
	rl.compact()

	nv := ygm.AllReduceSum(r, uint64(len(rl.verts)))
	nd := ygm.AllReduceSum(r, localDirected)
	np := ygm.AllReduceSum(r, localPlus)
	nw := ygm.AllReduceSum(r, localWedges)
	md := ygm.AllReduceMax(r, uint64(localMaxDeg))
	mo := ygm.AllReduceMax(r, uint64(localMaxOut))
	sl := ygm.AllReduceSum(r, localSelf)
	mg := ygm.AllReduceSum(r, localMerged)
	if r.ID() == b.w.LeaderID() {
		g.ordering = b.opts.Ordering
		g.numVertices = nv
		g.numDirectedEdges = nd
		g.numPlusEdges = np
		g.numWedges = nw
		g.maxDeg = uint32(md)
		g.maxOutDeg = uint32(mo)
		g.degeneracy = degen
		g.selfLoopsDropped = sl
		g.multiEdgesMerged = mg / 2
	}
	ygm.Rendezvous(r)
	return g
}

// Degeneracy ordering weights pack (removal epoch, capped full degree):
// the epoch in the high bits makes earlier-removed vertices sort
// <+-before later ones, and the degree in the low 8 bits breaks ties
// *within* one strip subround by the paper's degree heuristic. Any
// within-subround tie-break preserves the elimination bound (a vertex
// stripped at level k has ≤ k not-yet-removed neighbors, and all of its
// <+-later neighbors are drawn from those), but large strip batches on
// skewed graphs contain many internal edges, and orienting them toward
// the higher-degree endpoint prunes wedges exactly as the degree order
// does. Epochs saturate rather than overflow: past ~16M subrounds the
// order degrades to hash tie-breaks — surveys stay correct (any total
// order does), only the out-degree bound is lost.
const (
	peelDegBits  = 8
	peelEpochMax = (1 << (32 - peelDegBits)) - 1
	peelDegMax   = (1 << peelDegBits) - 1
)

func peelWeight(epoch, deg uint32) uint32 {
	if deg > peelDegMax {
		deg = peelDegMax
	}
	return epoch<<peelDegBits | deg
}

// peel runs the round-synchronous distributed k-core peel (Matula–Beck
// smallest-last ordering, bucketed by core level) and assigns every local
// vertex its removal-epoch weight. For increasing levels k = 0, 1, 2, ...
// it repeatedly strips every vertex whose residual degree (neighbors not
// yet removed) is ≤ k; each strip subround is one global epoch, so
// vertices removed earlier sort <+-before vertices removed later
// regardless of which rank stores them. A vertex removed at level k has at
// most k not-yet-removed neighbors, hence at most k out-neighbors in G⁺;
// the largest level reached is the graph's degeneracy, which peel returns
// (the value is identical on every rank, since levels advance in lockstep
// through global reductions).
func (b *Builder[VM, EM]) peel(r *ygm.Rank) uint32 {
	st := &b.ingest[r.ID()]
	rl := &b.built.local[r.ID()]
	ps := &b.peelSt[r.ID()]
	n := len(rl.verts)
	ps.residual = make([]uint32, n)
	ps.removed = make([]bool, n)
	for i := range rl.verts {
		ps.residual[i] = rl.verts[i].Deg
	}
	// Worklist of not-yet-removed local vertices, compacted on removal so
	// each subround scans survivors only.
	alive := make([]int32, n)
	for i := range alive {
		alive[i] = int32(i)
	}
	ygm.Rendezvous(r) // every rank's peel state exists before decrements fly

	remaining := ygm.AllReduceSum(r, uint64(n))
	var epoch, level, maxLevel uint32
	for remaining > 0 {
		var removedNow uint64
		kept := alive[:0]
		for _, i := range alive {
			if ps.residual[i] > level {
				kept = append(kept, i)
				continue
			}
			ps.removed[i] = true
			rl.verts[i].Ord = peelWeight(epoch, rl.verts[i].Deg)
			removedNow++
			for _, h := range st.half[rl.verts[i].ID] {
				e := r.Enc()
				e.PutUvarint(h.nbr)
				r.Async(b.part.Owner(h.nbr, r.Size()), b.hPeel, e)
			}
		}
		alive = kept
		r.Barrier() // every decrement of this subround is now buffered
		for _, i := range ps.pending {
			if !ps.removed[i] && ps.residual[i] > 0 {
				ps.residual[i]--
			}
		}
		ps.pending = ps.pending[:0]
		if epoch < peelEpochMax {
			epoch++
		}
		tot := ygm.AllReduceSum(r, removedNow)
		if tot > 0 {
			remaining -= tot
			maxLevel = level
			continue // same level until it stops stripping
		}
		// Level exhausted with vertices left: jump straight to the smallest
		// surviving residual degree (skipping guaranteed-empty levels; no
		// decrements were sent this subround, so residuals are settled and
		// the global minimum exceeds the current level).
		localMin := ^uint64(0)
		for _, i := range alive {
			if uint64(ps.residual[i]) < localMin {
				localMin = uint64(ps.residual[i])
			}
		}
		level = uint32(ygm.AllReduce(r, localMin, func(a, c uint64) uint64 {
			if a < c {
				return a
			}
			return c
		}))
	}
	return maxLevel
}
