package graph

import "testing"

// TestTriSpanStoreSemantics pins the store's maintenance semantics the
// index relies on: merge-on-duplicate, bucket removal at zero, exact
// expiry by envelope Lo, and δ/window filtering in SupportIn.
func TestTriSpanStoreSemantics(t *testing.T) {
	st := NewTriSpanStore()
	st.InsertEdge(5, 4, 100, nil) // canonicalized to {4, 5}
	if ts, ok := st.Edges[CanonPair(4, 5)]; !ok || ts != 100 {
		t.Fatalf("insert not canonical: %v %v", ts, ok)
	}
	min := func(a, b uint64) uint64 {
		if a < b {
			return a
		}
		return b
	}
	st.InsertEdge(4, 5, 50, min)
	if ts := st.Edges[CanonPair(4, 5)]; ts != 50 {
		t.Fatalf("duplicate must merge: got %d", ts)
	}
	st.InsertEdge(4, 5, 200, nil)
	if ts := st.Edges[CanonPair(4, 5)]; ts != 50 {
		t.Fatalf("nil merge must keep stored: got %d", ts)
	}

	st.AddSupport(1, 2, 3, 10, 40, 1)
	st.AddSupport(1, 2, 3, 10, 40, 1)
	st.AddSupport(1, 2, 3, 20, 25, 1)
	if got := st.SupportIn(1, 2, 0, 100, false, 0); got != 3 {
		t.Fatalf("SupportIn whole: got %d, want 3", got)
	}
	if got := st.SupportIn(1, 2, 0, 100, true, 10); got != 1 {
		t.Fatalf("SupportIn δ=10 must keep only the [20,25] bucket: got %d", got)
	}
	if got := st.SupportIn(1, 2, 15, 100, false, 0); got != 1 {
		t.Fatalf("SupportIn from=15 must drop Lo=10 buckets: got %d", got)
	}
	st.AddSupport(1, 2, 3, 10, 40, -2)
	if got := st.SupportIn(1, 2, 0, 100, false, 0); got != 1 {
		t.Fatalf("negative delta must remove the bucket: got %d", got)
	}
	// Each AddSupport touches the triangle's three edges; the [20, 25]
	// bucket survives on all of them.
	st.AddSupport(7, 8, 9, 5, 6, -1)
	if st.NumBuckets() != 3 {
		t.Fatalf("negative delta on absent bucket must not create one: %d buckets", st.NumBuckets())
	}

	st.InsertEdge(1, 2, 12, nil)
	st.InsertEdge(1, 3, 30, nil)
	edges, buckets := st.ExpireBefore(25)
	if edges != 1 {
		t.Fatalf("expire must drop the ts=12 edge: dropped %d", edges)
	}
	if buckets != 3 {
		t.Fatalf("expire must drop the Lo=20 bucket on all three edges: dropped %d", buckets)
	}
	if st.NumBuckets() != 0 {
		t.Fatalf("store must have no buckets left: %d", st.NumBuckets())
	}
}
