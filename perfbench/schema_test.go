package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkSchema checks every metric name in BENCHMARK.json against
// the allowed alphabet and that each has a unit, and that the file lists
// exactly the workloads and metrics this command emits.
func TestBenchmarkSchema(t *testing.T) {
	b := readBenchmark(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, names, units, better []string, declared []metricDef) {
		seen := map[string]bool{}
		for i, n := range names {
			if !nameRE.MatchString(n) {
				t.Errorf("%s metric %q: name outside [A-Za-z0-9_.-]", kind, n)
			}
			if !unitRE.MatchString(units[i]) {
				t.Errorf("%s metric %q: missing or malformed unit %q", kind, n, units[i])
			}
			if better[i] != "lower" && better[i] != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, n, better[i])
			}
			if seen[n] {
				t.Errorf("%s metric %q listed twice", kind, n)
			}
			seen[n] = true
		}
		if len(names) != len(declared) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command emits %d", kind, len(names), len(declared))
		}
		for _, d := range declared {
			i := indexOf(names, d.name)
			if i < 0 {
				t.Errorf("%s metric %q emitted but not in BENCHMARK.json", kind, d.name)
			} else if units[i] != d.unit {
				t.Errorf("%s metric %q: unit %q in BENCHMARK.json, %q emitted", kind, d.name, units[i], d.unit)
			}
		}
	}
	var names, units, better []string
	for _, m := range b.EndToEnd {
		names, units, better = append(names, m.Name), append(units, m.Unit), append(better, m.Better)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound must be in (0, 0.25]", m.Name)
		}
	}
	check("end-to-end", names, units, better, endToEnd)
	names, units, better = nil, nil, nil
	for _, m := range b.PerLayer {
		names, units, better = append(names, m.Name), append(units, m.Unit), append(better, m.Better)
	}
	check("per-layer", names, units, better, perLayer)

	if len(b.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q: the command does not run it", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1-200 characters", w.Name)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
