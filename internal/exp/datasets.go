package exp

import (
	"math"

	"tripoll/internal/core"
	"tripoll/internal/gen"
	"tripoll/internal/graph"
	"tripoll/internal/rmat"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// Dataset is a named stand-in for one of the paper's real graphs (Tab. 1).
type Dataset struct {
	// Name is the stand-in's name; Analog names the paper dataset whose
	// regime it substitutes (documented in DESIGN.md §2).
	Name   string
	Analog string
	Edges  [][2]uint64
}

// Datasets builds the four topology-only stand-ins used by the counting
// experiments (Fig. 4, Tab. 2, Tab. 4), smallest first as in Tab. 1.
func Datasets(cfg Config) []Dataset {
	cfg = cfg.withDefaults()
	// R-MAT scale shifts with the global size multiplier.
	shift := 0
	if cfg.Scale > 0 {
		shift = int(math.Round(math.Log2(cfg.Scale)))
	}
	clampScale := func(s int) int {
		if s < 7 {
			return 7
		}
		if s > 24 {
			return 24
		}
		return s
	}
	lj := gen.BarabasiAlbert(uint64(cfg.scaled(24_000, 500)), 8, 101)
	frP := rmat.Params{Scale: clampScale(13 + shift), Seed: 102, Scramble: true}
	fr := make([][2]uint64, 0, frP.NumEdges())
	frP.Generate(0, frP.NumEdges(), func(u, v uint64) { fr = append(fr, [2]uint64{u, v}) })
	// Twitter-like: more skew (larger A) → a few extreme hubs.
	twP := rmat.Params{Scale: clampScale(13 + shift), A: 0.65, B: 0.15, C: 0.15, D: 0.05, Seed: 103, Scramble: true}
	tw := make([][2]uint64, 0, twP.NumEdges())
	twP.Generate(0, twP.NumEdges(), func(u, v uint64) { tw = append(tw, [2]uint64{u, v}) })
	whp := gen.DefaultWebHostParams()
	whp.Pages = uint64(cfg.scaled(30_000, 600))
	whp.IntraEdges = cfg.scaled(120_000, 2_000)
	whp.InterEdges = cfg.scaled(200_000, 3_000)
	wh := gen.WebHostLike(whp)
	return []Dataset{
		{Name: "ba-social", Analog: "LiveJournal [8]", Edges: lj},
		{Name: "rmat-social", Analog: "Friendster [53]", Edges: fr},
		{Name: "rmat-skewed", Analog: "Twitter [33]", Edges: tw},
		{Name: "webhost", Analog: "Web Data Commons 2012 [3]", Edges: wh.Edges},
	}
}

// countSurvey runs one callback-free survey of g and releases it.
func countSurvey[VM, EM any](g *graph.DODGr[VM, EM], opts core.Options) core.Result {
	s := core.NewSurvey(g, opts, nil)
	defer s.Close()
	return s.Run()
}

// BuildUnit constructs a metadata-free DODGr (boolean-style dummy metadata
// replaced by the zero-byte Unit — §5.3) over nranks ranks.
func BuildUnit(cfg Config, nranks int, edges [][2]uint64) (*ygm.World, *graph.DODGr[serialize.Unit, serialize.Unit]) {
	w := ygm.MustWorld(nranks, ygm.Options{Transport: cfg.Transport})
	return w, BuildUnitOn(w, edges)
}

// BuildUnitOn is BuildUnit over a caller-configured world (used by the
// buffer-size ablation, which tunes ygm.Options itself).
func BuildUnitOn(w *ygm.World, edges [][2]uint64) *graph.DODGr[serialize.Unit, serialize.Unit] {
	b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.UnitCodec(), graph.BuilderOptions[serialize.Unit]{})
	var g *graph.DODGr[serialize.Unit, serialize.Unit]
	w.Parallel(func(r *ygm.Rank) {
		for i := r.ID(); i < len(edges); i += r.Size() {
			b.AddEdge(r, edges[i][0], edges[i][1], serialize.Unit{})
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	b.Close()
	return g
}

// BuildTemporal constructs a DODGr with timestamp edge metadata, merging
// multi-edges keep-chronologically-first (§5.2's Reddit reduction).
func BuildTemporal(cfg Config, nranks int, edges []graph.TemporalEdge) (*ygm.World, *graph.DODGr[serialize.Unit, uint64]) {
	w := ygm.MustWorld(nranks, ygm.Options{Transport: cfg.Transport})
	b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{
		MergeEdgeMeta: func(a, c uint64) uint64 {
			if a < c {
				return a
			}
			return c
		},
	})
	var g *graph.DODGr[serialize.Unit, uint64]
	w.Parallel(func(r *ygm.Rank) {
		for i := r.ID(); i < len(edges); i += r.Size() {
			b.AddEdge(r, edges[i].U, edges[i].V, edges[i].Time)
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	b.Close()
	return w, g
}

// BuildFQDN constructs the §5.8 configuration: FQDN strings as vertex
// metadata, no edge metadata.
func BuildFQDN(cfg Config, nranks int, wh *gen.WebHost) (*ygm.World, *graph.DODGr[string, serialize.Unit]) {
	w := ygm.MustWorld(nranks, ygm.Options{Transport: cfg.Transport})
	b := graph.NewBuilder(w, serialize.StringCodec(), serialize.UnitCodec(), graph.BuilderOptions[serialize.Unit]{})
	var g *graph.DODGr[string, serialize.Unit]
	w.Parallel(func(r *ygm.Rank) {
		for i := r.ID(); i < len(wh.Edges); i += r.Size() {
			b.AddEdge(r, wh.Edges[i][0], wh.Edges[i][1], serialize.Unit{})
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
	return w, g
}

// BuildDegreeMeta constructs the §5.9 configuration: each vertex's degree
// attached as its metadata (replacing the dummy metadata).
func BuildDegreeMeta(cfg Config, nranks int, edges [][2]uint64) (*ygm.World, *graph.DODGr[uint64, serialize.Unit]) {
	// Degrees of the deduplicated simple graph, computed identically on
	// every rank from the shared edge list.
	deg := map[uint64]uint32{}
	seen := map[[2]uint64]bool{}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if !seen[[2]uint64{u, v}] {
			seen[[2]uint64{u, v}] = true
			deg[u]++
			deg[v]++
		}
	}
	w := ygm.MustWorld(nranks, ygm.Options{Transport: cfg.Transport})
	b := graph.NewBuilder(w, serialize.Uint64Codec(), serialize.UnitCodec(), graph.BuilderOptions[serialize.Unit]{})
	var g *graph.DODGr[uint64, serialize.Unit]
	w.Parallel(func(r *ygm.Rank) {
		for i := r.ID(); i < len(edges); i += r.Size() {
			b.AddEdge(r, edges[i][0], edges[i][1], serialize.Unit{})
		}
		for v, d := range deg {
			if v%uint64(r.Size()) == uint64(r.ID()) {
				b.SetVertexMeta(r, v, uint64(d))
			}
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	b.Close()
	return w, g
}

// BuildRMATRanged constructs a DODGr from an R-MAT stream with each rank
// generating only its own slice — the distributed generation weak-scaling
// experiments rely on.
func BuildRMATRanged(cfg Config, nranks int, p rmat.Params) (*ygm.World, *graph.DODGr[serialize.Unit, serialize.Unit]) {
	w := ygm.MustWorld(nranks, ygm.Options{Transport: cfg.Transport})
	b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.UnitCodec(), graph.BuilderOptions[serialize.Unit]{})
	var g *graph.DODGr[serialize.Unit, serialize.Unit]
	w.Parallel(func(r *ygm.Rank) {
		start, end := p.RankRange(r.ID(), r.Size())
		p.Generate(start, end, func(u, v uint64) {
			b.AddEdge(r, u, v, serialize.Unit{})
		})
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	b.Close()
	return w, g
}
