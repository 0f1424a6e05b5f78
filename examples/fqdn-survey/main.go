// FQDN survey: the §5.8 analysis on a web-host graph with string vertex
// metadata. Strings travel unpadded through the serialization layer; the
// survey counts 3-tuples of distinct FQDNs over all triangles with a
// custom Analysis value — rank-local map accumulators tree-reduced after
// one traversal, no distributed container traffic — then inspects the hub
// domain's co-occurrences.
package main

import (
	"fmt"
	"sort"

	"tripoll"
	"tripoll/datagen"
)

type fqdnTriple = tripoll.Triple[string, string, string]

// fqdnTripleAnalysis is a custom analysis on the unified API: count each
// sorted 3-tuple of pairwise distinct FQDNs. Observe runs on the
// discovering rank with all six metadata items colocated; Merge folds the
// per-rank maps during the lg(n)-level tree reduction.
func fqdnTripleAnalysis() tripoll.Analysis[string, tripoll.Unit, map[fqdnTriple]uint64] {
	return tripoll.Analysis[string, tripoll.Unit, map[fqdnTriple]uint64]{
		Name:     "fqdn-triples",
		NewAccum: func() map[fqdnTriple]uint64 { return map[fqdnTriple]uint64{} },
		Observe: func(_ *tripoll.Rank, acc map[fqdnTriple]uint64, t *tripoll.Triangle[string, tripoll.Unit]) map[fqdnTriple]uint64 {
			a, b, c := t.MetaP, t.MetaQ, t.MetaR
			if a == b || b == c || a == c {
				return acc
			}
			if a > b {
				a, b = b, a
			}
			if b > c {
				b, c = c, b
			}
			if a > b {
				a, b = b, a
			}
			acc[fqdnTriple{First: a, Second: b, Third: c}]++
			return acc
		},
		Merge: func(x, y map[fqdnTriple]uint64) map[fqdnTriple]uint64 {
			for k, v := range y {
				x[k] += v
			}
			return x
		},
	}
}

func main() {
	p := datagen.DefaultWebHostParams()
	p.Pages = 10_000
	p.IntraEdges = 40_000
	p.InterEdges = 60_000
	wh := datagen.WebHostLike(p)
	fmt.Printf("generated host graph: %d pages, %d links, hub=%q\n",
		p.Pages, len(wh.Edges), datagen.HubFQDNs[0])

	w := tripoll.NewWorld(4)
	defer w.Close()

	// Build with FQDN strings as vertex metadata.
	b := tripoll.NewGraphBuilder(w, tripoll.StringCodec(), tripoll.UnitCodec(),
		tripoll.BuilderOptions[tripoll.Unit]{})
	var g *tripoll.Graph[string, tripoll.Unit]
	w.Parallel(func(r *tripoll.Rank) {
		for i := r.ID(); i < len(wh.Edges); i += r.Size() {
			b.AddEdge(r, wh.Edges[i][0], wh.Edges[i][1], tripoll.Unit{})
		}
		for v := r.ID(); v < len(wh.FQDN); v += r.Size() {
			b.SetVertexMeta(r, uint64(v), wh.FQDN[v])
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	b.Close()

	var triples map[fqdnTriple]uint64
	res, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil, fqdnTripleAnalysis().Bind(&triples))
	if err != nil {
		panic(err)
	}

	// Post-process "on a single machine": hub co-occurrence ranking.
	hub := datagen.HubFQDNs[0]
	co := map[string]uint64{}
	var hubTriples uint64
	for t, c := range triples {
		names := []string{t.First, t.Second, t.Third}
		isHub := false
		for _, n := range names {
			if n == hub {
				isHub = true
			}
		}
		if !isHub {
			continue
		}
		hubTriples += c
		for _, n := range names {
			if n != hub {
				co[n] += c
			}
		}
	}
	fmt.Printf("triangles: %d; distinct-FQDN 3-tuples: %d; involving hub: %d\n\n",
		res.Triangles, len(triples), hubTriples)

	type nc struct {
		name string
		c    uint64
	}
	var ranked []nc
	for n, c := range co {
		ranked = append(ranked, nc{n, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].c != ranked[j].c {
			return ranked[i].c > ranked[j].c
		}
		return ranked[i].name < ranked[j].name
	})
	fmt.Printf("FQDNs most frequently in triangles with %q:\n", hub)
	for i, r := range ranked {
		if i >= 10 {
			break
		}
		fmt.Printf("  %-24s %d\n", r.name, r.c)
	}
}
