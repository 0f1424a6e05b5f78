package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "core", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "core", Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 1, Layer: "wal", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Layer: "ygm", Start: 15, End: 20},
	}}
	self := tr.selfTimes()
	for layer, want := range map[string]time.Duration{
		"bench": 100 - 50 - 10, // children cover [10,60] and [90,100]
		"core":  (30 - 5) + 30,
		"wal":   30,
		"ygm":   5,
	} {
		if self[layer] != want {
			t.Errorf("%s self time %v, want %v", layer, self[layer], want)
		}
	}
}
