package main

import "testing"

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && samplesBeyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, samplesBeyond(c.n, p))
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestTailFallsBackToSupportedPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got, want := tail(xs, 90), percentile(xs, 90); got != want {
		t.Errorf("100 samples: tail p90 = %v, want p90 %v", got, want)
	}
	if got, want := tail(xs[:40], 90), percentile(xs[:40], 75); got != want {
		t.Errorf("40 samples: tail p90 = %v, want p75 %v", got, want)
	}
	if got, want := tail(xs[:5], 90), median(xs[:5]); got != want {
		t.Errorf("5 samples: tail p90 = %v, want the median %v", got, want)
	}
}
