// Package core implements TriPoll's primary contribution: distributed
// triangle surveys over metadata-decorated graphs (§4 of the paper). A
// survey enumerates every triangle Δpqr of the graph and applies a
// user-defined callback to the six pieces of metadata attached to the
// triangle's vertices and edges, with all metadata guaranteed to be
// colocated at the executing rank when the callback fires.
//
// Two algorithms are provided: Push-Only (Alg. 1 — vertex-centric,
// merge-path based) and Push-Pull (§4.4 — a dry-run pass negotiates, per
// (source rank, target vertex) pair, whether shipping candidate lists to
// the target ("push") or shipping the target's adjacency list to the
// source ("pull") moves fewer bytes).
//
// Surveys optionally carry a Plan: edge-metadata predicates, temporal
// δ-windows and sliding time windows compiled into per-phase filters that
// prune communication before it is enqueued (predicate pushdown). The
// dry run proposes no volume for a wedge the plan fully eliminates, the
// push phase drops filtered candidates before encoding, and pull replies
// omit adjacency entries that cannot complete a matching triangle; the
// full predicate is re-checked on the colocated metadata before every
// callback, so planned results equal post-filtered unplanned results
// exactly. DESIGN.md §7 locates each predicate class's check; the
// `pushdown` experiment measures the savings.
//
// The dry run, push and pull live once, in kernel.go; Survey (survey.go)
// and Stream (stream.go) are two views over that kernel. Beyond them the
// package bundles the stock analyses of §5 (analytics.go, temporal.go,
// edgecounts.go, labelindex.go, directed.go): counting, clustering
// coefficients, closure times and label distributions, each run through
// Run with an optional plan.
//
// Stream (stream.go, stream_analyses.go) maintains fused analyses
// incrementally over timestamped edge batches: each batch runs the kernel
// over only the changed edges, observing
// created triangles and reversing destroyed ones through invertible
// accumulators (with a windowed epoch-rebuild fallback), byte-identical
// after every batch to a from-scratch Run on the live edge set.
// DESIGN.md §9 has the design; the `stream` experiment the savings.
package core
