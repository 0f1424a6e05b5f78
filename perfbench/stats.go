package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs, linearly
// interpolated between closest ranks. xs is not modified. An empty xs
// yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of tail percentiles a timing may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile's rank.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)-1e-9))
}

// tailPercentile returns the highest percentile on tailLadder that has at
// least ten of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// tail returns the p-th percentile of xs, or, when xs is too small for
// ten samples to lie beyond it, the highest percentile that has them; with
// fewer than twenty samples that is the median.
func tail(xs []float64, p float64) float64 {
	return percentile(xs, max(50, min(p, tailPercentile(len(xs)))))
}
