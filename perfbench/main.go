// Command perfbench is TriPoll's benchmark: one command that generates a
// workload's inputs from a seed, drives the program (the library for the
// batch survey, a tripolld subprocess over loopback HTTP for the serving
// mixes), checks every answer it can, and prints one JSON result line.
//
//	perfbench -workload survey-web -seed 1 -seconds 50 -trace 0 \
//	    -tripolld ./tripolld -work ./scratch
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1 the
// run replays the same inputs in process with a span around every call the
// benchmark makes into a layer (ygm, graph, core, engine, wal, truss,
// tripolld), writes the spans to -work, and reports the per-layer metrics.
// README.md records the workloads, their calibration and what each metric
// is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tripolld string  // tripolld binary, for the serve workloads
	work     string  // this run's scratch directory: seed file, WALs, logs
	traceDir string  // where a traced run leaves its span file
	scale    float64 // multiplies input sizes; the smoke test runs below 1
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int
	mismatches        []string
	metrics           metrics
}

// mismatch records a failed correctness check; any one makes the run
// incorrect and the command exit non-zero.
func (o *outcome) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.mismatches = append(o.mismatches, msg)
	fmt.Fprintln(os.Stderr, "MISMATCH:", msg)
}

var workloads = map[string]func(config) (*outcome, error){
	"survey-web":  runSurveyWeb,
	"serve-mixed": func(c config) (*outcome, error) { return runServe(c, serveMixed) },
	"serve-truss": func(c config) (*outcome, error) { return runServe(c, serveTruss) },
}

// envStamp describes the machine and runtime a record was taken on.
func envStamp(cfg config) map[string]any {
	// survey-web builds its graph in process over loopback TCP; tripolld
	// runs its ranks on the channel transport.
	transport := "channel"
	if cfg.workload == "survey-web" {
		transport = "tcp"
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"go":         runtime.Version(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"scale":      cfg.scale,
		"transport":  transport,
		"ranks":      4,
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: survey-web | serve-mixed | serve-truss")
		seed     = flag.Int64("seed", 1, "input generator seed")
		seconds  = flag.Float64("seconds", 10, "measured duration of the run")
		traceOn  = flag.Int("trace", 0, "1: traced in-process replay reporting per-layer metrics")
		tripolld = flag.String("tripolld", "", "tripolld binary (serve workloads)")
		work     = flag.String("work", "", "scratch directory for seed files, WALs and traces")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *work == "" || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload <%s> -seed n -seconds s -trace 0|1 -work dir [-tripolld bin]\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceOn == 1, tripolld: *tripolld, scale: 1,
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg.work, cfg.traceDir = dir, *work
	stamp, _ := json.Marshal(envStamp(cfg))
	fmt.Fprintf(os.Stderr, "env %s\n", stamp)

	out, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if err := checkMetricSet(out.metrics, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{
		Correct:   len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkMetricSet requires m to hold exactly the declared metrics, each a
// finite number in its declared unit.
func checkMetricSet(m metrics, defs []metricDef) error {
	if len(m) != len(defs) {
		return fmt.Errorf("%d metrics reported, %d declared", len(m), len(defs))
	}
	for _, d := range defs {
		v, ok := m[d.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s not reported", d.name)
		case v.Unit != d.unit:
			return fmt.Errorf("metric %s in %s, declared %s", d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s is %v", d.name, v.Value)
		}
	}
	return nil
}

// tracePath is where a traced run writes its spans.
func tracePath(cfg config) string {
	return filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
}

// layerMetrics adds the per-layer self times and span count common to
// every traced run.
func layerMetrics(m metrics, tr *tracer) {
	self := tr.selfTimes()
	for _, l := range layers {
		m.set(l+".self_ms", float64(self[l])/1e6, "ms")
	}
	m.set("trace.spans", float64(tr.count()), "count")
}
