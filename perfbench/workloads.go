package main

import (
	"math"
	"time"
)

// surveyParams sizes survey-web.
type surveyParams struct {
	pages        uint64
	intra, inter int // intra-domain and cross-domain link budgets
	ranks        int
	setups       int // set-up repetitions; setup_s is their median
	minSurveys   int // floor on surveys per run, so the p90 has ten beyond it
	limit        time.Duration
}

// surveyWeb is calibrated on a 2-CPU host (README.md): one fused survey
// takes about 0.22 s, so a 50 s run holds about 200.
var surveyWeb = surveyParams{
	pages: 30_000, intra: 120_000, inter: 180_000,
	ranks: 4, setups: 5, minSurveys: 100, limit: 1 * time.Second,
}

func (p surveyParams) scaled(f float64) surveyParams {
	p.pages = uint64(math.Max(200, float64(p.pages)*f))
	p.intra = int(math.Max(800, float64(p.intra)*f))
	p.inter = int(math.Max(1200, float64(p.inter)*f))
	if f < 1 {
		p.minSurveys = 0
	}
	return p
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints; BENCHMARK.json lists
// the same names with their bounds. Serving latencies are per-layer
// (tripolld.*) because their run-to-run spread on the calibration host
// exceeds the largest bound (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"survey_s", "s"},
	{"goodput_qps", "1/s"},
	{"answered_share", "share"},
	{"mem_mb", "MB"},
}

// perLayer are the metrics every traced run prints. A workload that
// bypasses a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"ygm.messages", "count"},
	{"ygm.bytes", "B"},
	{"ygm.batches", "count"},
	{"graph.build_s", "s"},
	{"graph.wedges", "count"},
	{"graph.materialize_ms", "ms"},
	{"core.dryrun_s", "s"},
	{"core.push_s", "s"},
	{"core.pull_s", "s"},
	{"core.wedge_checks", "count"},
	{"core.work_balance", "share"},
	{"core.allocs", "count"},
	{"core.alloc_bytes", "B"},
	{"core.delta_ms", "ms"},
	{"core.traversal_ms", "ms"},
	{"engine.query_p50_ms", "ms"},
	{"engine.query_p90_ms", "ms"},
	{"engine.ingest_p50_ms", "ms"},
	{"engine.ingest_p90_ms", "ms"},
	{"engine.queries", "count"},
	{"engine.cache_hit_share", "share"},
	{"engine.queries_per_traversal", "ratio"},
	{"engine.shed", "count"},
	{"wal.append_p50_ms", "ms"},
	{"wal.append_p90_ms", "ms"},
	{"wal.syncs_per_mutation", "ratio"},
	{"wal.bytes_per_mutation", "B"},
	{"truss.serve_p50_ms", "ms"},
	{"truss.serve_p90_ms", "ms"},
	{"truss.served", "count"},
	{"truss.memo_share", "share"},
	{"truss.ingest_ms", "ms"},
	{"truss.buckets", "count"},
	{"tripolld.query_p50_ms", "ms"},
	{"tripolld.query_p90_ms", "ms"},
	{"tripolld.ingest_p50_ms", "ms"},
	{"tripolld.ingest_p90_ms", "ms"},
	{"tripolld.visible_p50_ms", "ms"},
	{"tripolld.visible_p90_ms", "ms"},
	{"tripolld.resp_bytes", "B"},
	{"bench.self_ms", "ms"},
	{"ygm.self_ms", "ms"},
	{"graph.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"engine.self_ms", "ms"},
	{"wal.self_ms", "ms"},
	{"truss.self_ms", "ms"},
	{"tripolld.self_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_ms", "ms"},
}

func zeroLayers(m metrics) {
	for _, d := range perLayer {
		m.set(d.name, 0, d.unit)
	}
}
