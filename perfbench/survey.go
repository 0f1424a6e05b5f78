package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"tripoll"
	"tripoll/datagen"
	"tripoll/internal/baseline"
)

type fqdnTriple = tripoll.Triple[string, string, string]

// fqdnTripleAnalysis counts each sorted 3-tuple of pairwise distinct FQDNs
// over all triangles: the §5.8 web-host survey, with string vertex
// metadata moving through the serialization layer.
func fqdnTripleAnalysis() tripoll.Analysis[string, tripoll.Unit, map[fqdnTriple]uint64] {
	return tripoll.Analysis[string, tripoll.Unit, map[fqdnTriple]uint64]{
		Name:     "fqdn-triples",
		NewAccum: func() map[fqdnTriple]uint64 { return map[fqdnTriple]uint64{} },
		Observe: func(_ *tripoll.Rank, acc map[fqdnTriple]uint64, t *tripoll.Triangle[string, tripoll.Unit]) map[fqdnTriple]uint64 {
			v := [3]string{t.MetaP, t.MetaQ, t.MetaR}
			if v[0] == v[1] || v[1] == v[2] || v[0] == v[2] {
				return acc
			}
			sort.Strings(v[:])
			acc[fqdnTriple{First: v[0], Second: v[1], Third: v[2]}]++
			return acc
		},
		Merge: func(x, y map[fqdnTriple]uint64) map[fqdnTriple]uint64 {
			for k, c := range y {
				x[k] += c
			}
			return x
		},
	}
}

// webInput is survey-web's generated input.
type webInput struct {
	edges [][2]uint64
	fqdn  []string
}

// genWeb generates the host graph from the generator's fixed seed, like a
// fixed dataset, then relabels its pages by a permutation drawn from seed:
// each seed places vertices on different ranks and breaks degree-order ties
// differently, while the work a survey does stays comparable across seeds.
func genWeb(p surveyParams, seed int64) webInput {
	wp := datagen.DefaultWebHostParams()
	wp.Pages = p.pages
	wp.IntraEdges = p.intra
	wp.InterEdges = p.inter
	wh := datagen.WebHostLike(wp)
	perm := rand.New(rand.NewSource(seed)).Perm(len(wh.FQDN))
	in := webInput{edges: make([][2]uint64, len(wh.Edges)), fqdn: make([]string, len(wh.FQDN))}
	for v, name := range wh.FQDN {
		in.fqdn[perm[v]] = name
	}
	for i, e := range wh.Edges {
		in.edges[i] = [2]uint64{uint64(perm[e[0]]), uint64(perm[e[1]])}
	}
	return in
}

func buildWeb(w *tripoll.World, in webInput) *tripoll.Graph[string, tripoll.Unit] {
	b := tripoll.NewGraphBuilder(w, tripoll.StringCodec(), tripoll.UnitCodec(), tripoll.BuilderOptions[tripoll.Unit]{})
	var g *tripoll.Graph[string, tripoll.Unit]
	w.Parallel(func(r *tripoll.Rank) {
		for i := r.ID(); i < len(in.edges); i += r.Size() {
			b.AddEdge(r, in.edges[i][0], in.edges[i][1], tripoll.Unit{})
		}
		for v := r.ID(); v < len(in.fqdn); v += r.Size() {
			b.SetVertexMeta(r, uint64(v), in.fqdn[v])
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	return g
}

// webSurvey is one fused Push-Pull traversal: count, per-vertex counts and
// the FQDN-triple survey.
type webSurvey struct {
	res       tripoll.Result
	total     uint64
	local     map[uint64]uint64
	triples   map[fqdnTriple]uint64
	wall      time.Duration
	traversal time.Duration
}

func runWebSurvey(g *tripoll.Graph[string, tripoll.Unit], tr *tracer, parent int) (webSurvey, error) {
	var s webSurvey
	var err error
	t0 := time.Now()
	s.traversal = tr.do(parent, "core", "Run", func() {
		s.res, err = tripoll.Run(g, tripoll.SurveyOptions{Mode: tripoll.PushPull}, nil,
			tripoll.CountAnalysis[string, tripoll.Unit]().Bind(&s.total),
			tripoll.VertexCountAnalysis[string, tripoll.Unit]().Bind(&s.local),
			fqdnTripleAnalysis().Bind(&s.triples))
	})
	s.wall = time.Since(t0)
	return s, err
}

// check compares one survey against the serial triangle count and the
// first survey's FQDN-triple totals; it returns the triple digest.
func (s webSurvey) check(o *outcome, want uint64, firstDigest uint64) (uint64, bool) {
	ok := true
	if s.res.Triangles != want || s.total != want {
		o.mismatch("survey-web: %d triangles (count analysis %d), serial count %d", s.res.Triangles, s.total, want)
		ok = false
	}
	var local uint64
	for _, c := range s.local {
		local += c
	}
	if local != 3*want {
		o.mismatch("survey-web: per-vertex counts sum to %d, want 3×%d", local, want)
		ok = false
	}
	d := tripleDigest(s.triples)
	if firstDigest != 0 && d != firstDigest {
		o.mismatch("survey-web: FQDN-triple totals differ between repeats")
		ok = false
	}
	return d, ok
}

func tripleDigest(m map[fqdnTriple]uint64) uint64 {
	keys := make([]fqdnTriple, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.First != b.First {
			return a.First < b.First
		}
		if a.Second != b.Second {
			return a.Second < b.Second
		}
		return a.Third < b.Third
	})
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s|%s|%s=%d;", k.First, k.Second, k.Third, m[k])
	}
	return h.Sum64() | 1
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func runSurveyWeb(cfg config) (*outcome, error) {
	p := surveyWeb.scaled(cfg.scale)
	in := genWeb(p, cfg.seed)
	// The reference count is computed outside every timed region.
	want := baseline.SerialCount(in.edges)
	o := &outcome{metrics: metrics{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up: a fresh loopback-TCP world and a graph build, repeated; the
	// last graph stays for the timed surveys. Each set-up ends with one
	// checked survey, which also warms the traversal before the timed loop.
	var (
		w              *tripoll.World
		g              *tripoll.Graph[string, tripoll.Unit]
		setups, builds []float64
		digest         uint64
	)
	for i := 0; i < p.setups; i++ {
		if w != nil {
			w.Close()
		}
		root := tr.begin(0, "bench", "setup")
		t0 := time.Now()
		var err error
		tr.do(root, "ygm", "NewWorldWith", func() {
			w, err = tripoll.NewWorldWith(p.ranks, tripoll.WorldOptions{Transport: tripoll.TransportTCP})
		})
		if err != nil {
			return nil, fmt.Errorf("survey-web: world: %w", err)
		}
		build := tr.do(root, "graph", "Build", func() { g = buildWeb(w, in) })
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, ms(build))
		s, err := runWebSurvey(g, tr, root)
		if err != nil {
			return nil, fmt.Errorf("survey-web: survey: %w", err)
		}
		tr.end(root)
		o.attempted++
		d, ok := s.check(o, want, digest)
		if !ok {
			o.failed++
		}
		if digest == 0 {
			digest = d
		}
	}
	defer w.Close()
	in = webInput{}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)
	info := tripoll.Info(g)

	// Timed loop: back-to-back fused surveys (closed loop, one caller).
	// A traced run alternates traced and untraced surveys so the two
	// medians give the tracing overhead.
	var (
		lat, tracedWall, plainWall                   []float64
		dry, push, pull, balance, travMS             []float64
		msgs, bytes, batches, checks, allocs, abytes []float64
		good                                         int
	)
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds || len(lat) < p.minSurveys; i++ {
		o.attempted++
		traced := tr != nil && i%2 == 0
		var s webSurvey
		var err error
		if traced {
			root := tr.begin(0, "bench", "survey")
			// Run zeroes the world's counters when it starts, so Stats
			// read after it is this survey's traffic.
			var ws tripoll.WorldStats
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			s, err = runWebSurvey(g, tr, root)
			runtime.ReadMemStats(&m1)
			tr.do(root, "ygm", "Stats", func() { ws = w.Stats() })
			tr.end(root)
			tracedWall = append(tracedWall, ms(s.wall))
			msgs = append(msgs, float64(ws.MessagesSent))
			bytes = append(bytes, float64(ws.BytesSent))
			batches = append(batches, float64(ws.BatchesSent))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
			abytes = append(abytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		} else {
			s, err = runWebSurvey(g, nil, 0)
			plainWall = append(plainWall, ms(s.wall))
		}
		if err != nil {
			return nil, fmt.Errorf("survey-web: survey: %w", err)
		}
		l := ms(s.wall)
		if _, ok := s.check(o, want, digest); !ok {
			o.failed++
			l = max(l, ms(p.limit))
		} else if l <= ms(p.limit) {
			good++
		}
		lat = append(lat, l)
		dry = append(dry, s.res.DryRun.Duration.Seconds())
		push = append(push, s.res.Push.Duration.Seconds())
		pull = append(pull, s.res.Pull.Duration.Seconds())
		balance = append(balance, s.res.WorkBalance)
		checks = append(checks, float64(s.res.WedgeChecks))
		travMS = append(travMS, ms(s.traversal))
	}
	elapsed := time.Since(start).Seconds()
	fmt.Fprintf(os.Stderr, "survey-web: %d triangles, |W+|=%d, %d surveys in %.1fs\n", want, info.Wedges, len(lat), elapsed)

	m := o.metrics
	if !cfg.trace {
		m.set("setup_s", median(setups), "s")
		m.set("survey_s", median(lat)/1e3, "s")
		m.set("goodput_qps", float64(good)/elapsed, "1/s")
		m.set("answered_share", 1-float64(o.failed)/float64(o.attempted), "share")
		m.set("mem_mb", heapMB, "MB")
		return o, nil
	}
	zeroLayers(m)
	m.set("ygm.messages", median(msgs), "count")
	m.set("ygm.bytes", median(bytes), "B")
	m.set("ygm.batches", median(batches), "count")
	m.set("graph.build_s", median(builds)/1e3, "s")
	m.set("graph.wedges", float64(info.Wedges), "count")
	m.set("core.dryrun_s", median(dry), "s")
	m.set("core.push_s", median(push), "s")
	m.set("core.pull_s", median(pull), "s")
	m.set("core.wedge_checks", median(checks), "count")
	m.set("core.work_balance", median(balance), "share")
	m.set("core.allocs", median(allocs), "count")
	m.set("core.alloc_bytes", median(abytes), "B")
	m.set("core.traversal_ms", median(travMS), "ms")
	m.set("trace.overhead_ms", median(tracedWall)-median(plainWall), "ms")
	layerMetrics(m, tr)
	return o, tr.write(tracePath(cfg), envStamp(cfg))
}
