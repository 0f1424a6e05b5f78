package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// requires its correctness checks to pass and its metric set to be
// complete.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tripolld and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "tripolld")
	if out, err := exec.Command("go", "build", "-o", bin, "tripoll/cmd/tripolld").CombinedOutput(); err != nil {
		t.Fatalf("build tripolld: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: name, seed: 3, seconds: 2 * time.Second, trace: traced,
				tripolld: bin, work: t.TempDir(), traceDir: t.TempDir(), scale: 0.02,
			}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			if len(out.mismatches) > 0 || out.failed > 0 || out.attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed; mismatches %v", name, traced, out.failed, out.attempted, out.mismatches)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if err := checkMetricSet(out.metrics, want); err != nil {
				t.Errorf("%s (trace %v): %v", name, traced, err)
			}
		}
	}
}
