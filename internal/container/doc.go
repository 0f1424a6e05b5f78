// Package container provides the YGM-style counting set of §4.1.4 — the
// distributed container survey callbacks accumulate into when an answer
// must live across ranks rather than rank-local.
//
// Counter is the paper's counting set: Inc routes increments to the
// owning rank through the async runtime, with a per-rank write-back cache
// that batches hot keys before they cross the transport (the §4.1.4
// optimization that makes skewed label distributions affordable).
//
// It follows the same discipline as the rest of the runtime: construct
// outside parallel regions (handler registration), mutate from any rank
// inside them, and reconcile at a Barrier — after which Gather sees a
// consistent global state. Since the unified analysis API (DESIGN.md §8),
// stock analyses accumulate rank-locally and tree-reduce instead, so the
// counting set serves custom survey pipelines whose state genuinely must
// be distributed rather than merged once at the end (the FQDN survey of
// -exp surveys is one).
package container
