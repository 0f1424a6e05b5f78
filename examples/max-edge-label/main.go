// Max edge label: Alg. 3 of the paper — among triangles whose three vertex
// labels are pairwise distinct, the distribution of the maximum edge label.
// Vertex labels model user categories (buyer/seller/moderator); edge labels
// model interaction types. The survey runs as a MaxEdgeLabelAnalysis value
// attached to a Run.
package main

import (
	"fmt"
	"math/rand"
	"sort"

	"tripoll"
	"tripoll/datagen"
)

func main() {
	w := tripoll.NewWorld(4)
	defer w.Close()

	topo := datagen.BarabasiAlbert(5_000, 6, 11)
	rng := rand.New(rand.NewSource(99))

	// Vertex label = category 0..3; edge label = interaction type 1..5.
	label := func(v uint64) uint64 { return v % 4 }
	b := tripoll.NewGraphBuilder(w, tripoll.Uint64Codec(), tripoll.Uint64Codec(),
		tripoll.BuilderOptions[uint64]{})
	var g *tripoll.Graph[uint64, uint64]
	edgeLabels := make([]uint64, len(topo))
	for i := range edgeLabels {
		edgeLabels[i] = uint64(1 + rng.Intn(5))
	}
	w.Parallel(func(r *tripoll.Rank) {
		vset := map[uint64]bool{}
		for i, e := range topo {
			vset[e[0]] = true
			vset[e[1]] = true
			if i%r.Size() == r.ID() {
				b.AddEdge(r, e[0], e[1], edgeLabels[i])
			}
		}
		for v := range vset {
			if v%uint64(r.Size()) == uint64(r.ID()) {
				b.SetVertexMeta(r, v, label(v))
			}
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	b.Close()

	// Alg. 3 as an analysis value: distinctLabels=true applies the guard
	// that the three vertex labels be pairwise distinct.
	var dist map[uint64]uint64
	res, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil,
		tripoll.MaxEdgeLabelAnalysis[uint64](true).Bind(&dist))
	if err != nil {
		panic(err)
	}
	fmt.Printf("triangles: %d\n", res.Triangles)
	fmt.Println("max-edge-label distribution over distinct-vertex-label triangles:")
	var labels []uint64
	var total uint64
	for l, c := range dist {
		labels = append(labels, l)
		total += c
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	for _, l := range labels {
		fmt.Printf("  label %d: %d\n", l, dist[l])
	}
	fmt.Printf("triangles with all-distinct vertex labels: %d of %d\n", total, res.Triangles)
}
