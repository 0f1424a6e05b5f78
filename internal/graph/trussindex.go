package graph

import (
	"sort"

	"tripoll/internal/serialize"
)

// Triangle-span index storage: the structural half of internal/truss's
// maintained index. Per live-window edge it keeps the merged timestamp and
// the span-bucketed support — how many triangles through the edge have a
// given timestamp envelope [Lo, Hi]. Bucketing by envelope (rather than a
// flat count) is what lets a single maintained structure answer
// span-truss queries for *any* window [from, until] and close-within δ:
// a triangle contributes to the window iff from ≤ Lo ∧ Hi ≤ until ∧
// Hi−Lo ≤ δ, all decidable from the bucket key alone.
//
// The store itself is single-threaded and process-local; the distributed
// maintenance discipline (collective publication of rank-local deltas so
// every process holds an identical store) lives in internal/truss.

// TriSpan is the closed timestamp envelope [Lo, Hi] of a triangle: the
// min and max of its three edge timestamps.
type TriSpan struct {
	Lo, Hi uint64
}

// TriSpanStore maps each live undirected edge (canonical First < Second)
// to its merged timestamp, and each edge to its span-bucketed triangle
// support. Supp entries exist only for edges with at least one bucket;
// Edges is authoritative for membership.
type TriSpanStore struct {
	Edges map[serialize.Pair[uint64, uint64]]uint64
	Supp  map[serialize.Pair[uint64, uint64]]map[TriSpan]uint64
}

// NewTriSpanStore returns an empty store.
func NewTriSpanStore() *TriSpanStore {
	return &TriSpanStore{
		Edges: make(map[serialize.Pair[uint64, uint64]]uint64),
		Supp:  make(map[serialize.Pair[uint64, uint64]]map[TriSpan]uint64),
	}
}

// CanonPair returns the canonical undirected key for {u, v}.
func CanonPair(u, v uint64) serialize.Pair[uint64, uint64] {
	if u > v {
		u, v = v, u
	}
	return serialize.Pair[uint64, uint64]{First: u, Second: v}
}

// InsertEdge records edge {u, v} with timestamp ts. A re-insertion of a
// live edge merges timestamps through merge (nil keeps the stored value,
// mirroring StreamShard.Insert); insertion after expiry is a fresh edge.
func (st *TriSpanStore) InsertEdge(u, v, ts uint64, merge func(a, b uint64) uint64) {
	k := CanonPair(u, v)
	if old, ok := st.Edges[k]; ok {
		if merge != nil {
			st.Edges[k] = merge(old, ts)
		}
		return
	}
	st.Edges[k] = ts
}

// AddSupport bumps the [lo, hi] bucket on the three edges of triangle
// {p, q, r} by delta (negative deltas subtract; a bucket reaching zero is
// removed).
func (st *TriSpanStore) AddSupport(p, q, r, lo, hi uint64, delta int64) {
	sp := TriSpan{Lo: lo, Hi: hi}
	for _, k := range [3]serialize.Pair[uint64, uint64]{CanonPair(p, q), CanonPair(p, r), CanonPair(q, r)} {
		b, ok := st.Supp[k]
		if !ok {
			if delta <= 0 {
				continue
			}
			b = make(map[TriSpan]uint64)
			st.Supp[k] = b
		}
		n := int64(b[sp]) + delta
		switch {
		case n > 0:
			b[sp] = uint64(n)
		default:
			delete(b, sp)
			if len(b) == 0 {
				delete(st.Supp, k)
			}
		}
	}
}

// ExpireBefore drops every edge timestamped below the cutoff and every
// support bucket whose envelope opens below it. A triangle survives the
// watermark iff all three of its edges do, i.e. iff its minimum edge
// timestamp Lo ≥ cutoff — so dropping buckets by Lo alone is exact and
// needs no triangle identity. Returns the number of edges and buckets
// dropped.
func (st *TriSpanStore) ExpireBefore(cutoff uint64) (edges, buckets int) {
	for k, ts := range st.Edges {
		if ts < cutoff {
			delete(st.Edges, k)
			edges++
		}
	}
	for k, b := range st.Supp {
		for sp := range b {
			if sp.Lo < cutoff {
				delete(b, sp)
				buckets++
			}
		}
		if len(b) == 0 {
			delete(st.Supp, k)
		}
	}
	return edges, buckets
}

// ResetSupport clears all support buckets ahead of an epoch rebuild; the
// rebuild's full traversal re-delivers every live-window triangle. Edge
// state is maintained structurally and survives.
func (st *TriSpanStore) ResetSupport() {
	st.Supp = make(map[serialize.Pair[uint64, uint64]]map[TriSpan]uint64)
}

// NumEdges returns the number of live edges.
func (st *TriSpanStore) NumEdges() int { return len(st.Edges) }

// NumBuckets returns the total number of (edge, span) support buckets.
func (st *TriSpanStore) NumBuckets() int {
	n := 0
	for _, b := range st.Supp {
		n += len(b)
	}
	return n
}

// SupportIn sums the support of edge {u, v} restricted to triangles whose
// envelope fits the closed window [from, until] and, when hasDelta, whose
// width Hi−Lo is at most delta.
func (st *TriSpanStore) SupportIn(u, v, from, until uint64, hasDelta bool, delta uint64) uint64 {
	var sum uint64
	for sp, n := range st.Supp[CanonPair(u, v)] {
		if sp.Lo < from || sp.Hi > until {
			continue
		}
		if hasDelta && sp.Hi-sp.Lo > delta {
			continue
		}
		sum += n
	}
	return sum
}

// EdgesIn returns the live edges timestamped inside the closed window
// [from, until], sorted ascending by (First, Second).
func (st *TriSpanStore) EdgesIn(from, until uint64) []serialize.Pair[uint64, uint64] {
	out := make([]serialize.Pair[uint64, uint64], 0, len(st.Edges))
	for k, ts := range st.Edges {
		if ts < from || ts > until {
			continue
		}
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].First != out[j].First {
			return out[i].First < out[j].First
		}
		return out[i].Second < out[j].Second
	})
	return out
}
