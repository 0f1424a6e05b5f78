package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tripoll"
	"tripoll/internal/wal"
)

func minTimestamp(a, b uint64) uint64 { return min(a, b) }

// replay is the traced in-process half of a serve workload's traced run.
// It feeds the workload's schedule, in due order and as fast as it runs,
// through each layer tripolld stacks up: an in-process engine over a
// durable stream (engine), a plain stream (core delta; with the truss index
// as its sink on serve-truss), snapshots of that stream (graph
// materialize, core traversal), the index's ServeQuery (truss) and a
// scratch write-ahead log (wal). Every call sits in a span. It stops after
// the run's measured duration.
func replay(o *outcome, cfg config, p serveParams, in streamInput, tr *tracer) error {
	ctx := context.Background()
	sync := wal.SyncNever
	if p.walSync {
		sync = wal.SyncAlways
	}
	streamOpts := tripoll.StreamOptions[uint64]{MergeEdgeMeta: minTimestamp}
	setup := tr.begin(0, "bench", "replay-setup")
	w1, err := tripoll.NewWorldWith(4, tripoll.WorldOptions{})
	if err != nil {
		return err
	}
	defer w1.Close()
	var g1 *tripoll.Graph[tripoll.Unit, uint64]
	build := tr.do(setup, "graph", "BuildTemporal", func() { g1 = tripoll.BuildTemporal(w1, in.seed) })
	eng := tripoll.NewQueryEngine(tripoll.TemporalQueryRegistry(), tripoll.QueryEngineOptions[uint64]{
		Timestamps: func(t uint64) uint64 { return t },
	})
	defer eng.Close()
	var engSinks []tripoll.StreamSink[tripoll.Unit, uint64]
	var engIx *tripoll.TrussIndex[tripoll.Unit]
	if p.truss {
		engIx = tripoll.NewTrussIndex[tripoll.Unit](minTimestamp)
		engSinks = append(engSinks, engIx)
	}
	tr.do(setup, "engine", "OpenDurableStreamSinks", func() {
		_, _, err = eng.OpenDurableStreamSinks("g", g1, streamOpts, tripoll.NewTemporalPlan(),
			tripoll.DurableStreamOptions{Dir: filepath.Join(cfg.work, "replay-engine-wal"), Sync: sync}, engSinks)
		if err == nil && engIx != nil {
			err = eng.AttachIndex("g", engIx)
		}
	})
	if err != nil {
		return fmt.Errorf("replay: engine: %w", err)
	}

	w2, err := tripoll.NewWorldWith(4, tripoll.WorldOptions{})
	if err != nil {
		return err
	}
	defer w2.Close()
	g2 := tripoll.BuildTemporal(w2, in.seed)
	var sinks []tripoll.StreamSink[tripoll.Unit, uint64]
	var ix *tripoll.TrussIndex[tripoll.Unit]
	deltaLayer := "core"
	if p.truss {
		ix = tripoll.NewTrussIndex[tripoll.Unit](minTimestamp)
		sinks = append(sinks, ix)
		deltaLayer = "truss"
	}
	var s *tripoll.Stream[tripoll.Unit, uint64]
	tr.do(setup, deltaLayer, "OpenStreamSinks", func() {
		s, err = tripoll.OpenStreamSinks(g2, streamOpts, tripoll.NewTemporalPlan(), sinks)
	})
	if err != nil {
		return fmt.Errorf("replay: stream: %w", err)
	}
	var log *wal.Log[uint64]
	tr.do(setup, "wal", "Open", func() {
		log, _, err = wal.Open(filepath.Join(cfg.work, "replay-wal"), tripoll.Uint64Codec(), wal.Options{Sync: sync})
	})
	if err != nil {
		return fmt.Errorf("replay: wal: %w", err)
	}
	defer log.Close()
	tr.end(setup)

	var (
		walMS, engIngestMS, engQueryMS, deltaMS, serveMS []float64
		materializeMS, travMS                            []float64
		msgs, bytes, batches, dry, push, pull            []float64
		checks, balance, allocs, abytes                  []float64
		mutations, queries                               int
		snap                                             *tripoll.Graph[tripoll.Unit, uint64]
		snapFresh                                        bool
	)
	// observe records a core Result and the traffic and allocations around
	// the call that produced it.
	observe := func(res tripoll.Result, ws tripoll.WorldStats, m0, m1 *runtime.MemStats) {
		msgs = append(msgs, float64(ws.MessagesSent))
		bytes = append(bytes, float64(ws.BytesSent))
		batches = append(batches, float64(ws.BatchesSent))
		dry = append(dry, res.DryRun.Duration.Seconds())
		push = append(push, res.Push.Duration.Seconds())
		pull = append(pull, res.Pull.Duration.Seconds())
		checks = append(checks, float64(res.WedgeChecks))
		balance = append(balance, res.WorkBalance)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		abytes = append(abytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	// Per-traversal numbers come from snapshot traversals on serve-mixed
	// and from delta ingests on serve-truss.
	observed := "Run"
	if p.truss {
		observed = "Stream.Ingest"
	}
	// measured runs fn between MemStats readings and reads w2's traffic
	// after it: Run, Stream.Ingest and Stream.Advance zero the world's
	// counters when they start.
	measured := func(root int, layer, name string, fn func() (tripoll.Result, error)) (time.Duration, error) {
		var ws tripoll.WorldStats
		var m0, m1 runtime.MemStats
		var res tripoll.Result
		var err error
		runtime.ReadMemStats(&m0)
		d := tr.do(root, layer, name, func() { res, err = fn() })
		runtime.ReadMemStats(&m1)
		tr.do(root, "ygm", "Stats", func() { ws = w2.Stats() })
		if err == nil && name == observed {
			observe(res, ws, &m0, &m1)
		}
		return d, err
	}
	engineQuery := func(root int, spec tripoll.QuerySpec) error {
		queries++
		var err error
		engQueryMS = append(engQueryMS, ms(tr.do(root, "engine", "Submit+Wait", func() {
			var j *tripoll.QueryJob
			if j, err = eng.Submit(ctx, spec); err == nil {
				_, err = j.Wait(ctx)
			}
		})))
		return err
	}

	deadline := time.Now().Add(cfg.seconds)
	for _, x := range in.ops {
		if time.Now().After(deadline) {
			break
		}
		root := tr.begin(0, "bench", "replay")
		switch x.kind {
		case opIngest:
			batch := make([]tripoll.StreamEdge[uint64], len(x.batch))
			for i, e := range x.batch {
				batch[i] = tripoll.StreamEdge[uint64]{U: e.U, V: e.V, Meta: e.Time}
			}
			walMS = append(walMS, ms(tr.do(root, "wal", "AppendIngest", func() { _, err = log.AppendIngest(batch) })))
			if err != nil {
				return fmt.Errorf("replay: wal append: %w", err)
			}
			engIngestMS = append(engIngestMS, ms(tr.do(root, "engine", "Ingest", func() { _, err = eng.Ingest(ctx, "g", batch) })))
			if err != nil {
				return fmt.Errorf("replay: engine ingest: %w", err)
			}
			d, err := measured(root, deltaLayer, "Stream.Ingest", func() (tripoll.Result, error) { return s.Ingest(batch) })
			if err != nil {
				return fmt.Errorf("replay: stream ingest: %w", err)
			}
			deltaMS = append(deltaMS, ms(d))
			mutations++
			if x.cutoff > 0 {
				walMS = append(walMS, ms(tr.do(root, "wal", "AppendAdvance", func() { _, err = log.AppendAdvance(x.cutoff) })))
				if err != nil {
					return fmt.Errorf("replay: wal append: %w", err)
				}
				tr.do(root, "engine", "Advance", func() { _, err = eng.Advance(ctx, "g", x.cutoff) })
				if err != nil {
					return fmt.Errorf("replay: engine advance: %w", err)
				}
				d, err := measured(root, deltaLayer, "Stream.Advance", func() (tripoll.Result, error) { return s.Advance(x.cutoff) })
				if err != nil {
					return fmt.Errorf("replay: stream advance: %w", err)
				}
				deltaMS = append(deltaMS, ms(d))
				mutations++
			}
			snapFresh = false
			// The visibility probe tripolld's load sends after each ingest.
			if err := engineQuery(root, x.probe); err != nil {
				return fmt.Errorf("replay: engine query: %w", err)
			}
		case opQuery:
			if err := engineQuery(root, x.spec); err != nil {
				return fmt.Errorf("replay: engine query: %w", err)
			}
			if p.truss {
				serveMS = append(serveMS, ms(tr.do(root, "truss", "ServeQuery", func() {
					_, _, err = ix.ServeQuery(x.spec.Analysis, x.spec.Args, x.spec.From, x.spec.Until, x.spec.Delta)
				})))
				if err != nil {
					return fmt.Errorf("replay: truss serve: %w", err)
				}
				break
			}
			if !snapFresh {
				materializeMS = append(materializeMS, ms(tr.do(root, "graph", "Materialize", func() { snap = s.Materialize() })))
				snapFresh = true
			}
			d, err := measured(root, "core", "Run", func() (tripoll.Result, error) {
				return tripoll.Run(snap, tripoll.SurveyOptions{}, planOf(x.spec), attachFor(x.spec))
			})
			if err != nil {
				return fmt.Errorf("replay: traversal: %w", err)
			}
			travMS = append(travMS, ms(d))
		}
		tr.end(root)
	}

	m := o.metrics
	m.set("ygm.messages", median(msgs), "count")
	m.set("ygm.bytes", median(bytes), "B")
	m.set("ygm.batches", median(batches), "count")
	m.set("graph.build_s", build.Seconds(), "s")
	m.set("graph.wedges", float64(tripoll.Info(g1).Wedges), "count")
	m.set("graph.materialize_ms", median(materializeMS), "ms")
	m.set("core.dryrun_s", median(dry), "s")
	m.set("core.push_s", median(push), "s")
	m.set("core.pull_s", median(pull), "s")
	m.set("core.wedge_checks", median(checks), "count")
	m.set("core.work_balance", median(balance), "share")
	m.set("core.allocs", median(allocs), "count")
	m.set("core.alloc_bytes", median(abytes), "B")
	m.set("core.delta_ms", median(deltaMS), "ms")
	m.set("core.traversal_ms", median(travMS), "ms")
	m.set("engine.query_p50_ms", median(engQueryMS), "ms")
	m.set("engine.query_p90_ms", tail(engQueryMS, 90), "ms")
	m.set("engine.ingest_p50_ms", median(engIngestMS), "ms")
	m.set("engine.ingest_p90_ms", tail(engIngestMS, 90), "ms")
	st := eng.Stats()
	m.set("engine.queries", float64(queries), "count")
	m.set("engine.cache_hit_share", float64(st.CacheHits)/float64(max(queries, 1)), "share")
	m.set("engine.queries_per_traversal", float64(queries)/float64(max(st.Traversals, 1)), "ratio")
	m.set("engine.shed", float64(st.Shed), "count")
	ws := log.Stats()
	m.set("wal.append_p50_ms", median(walMS), "ms")
	m.set("wal.append_p90_ms", tail(walMS, 90), "ms")
	m.set("wal.syncs_per_mutation", float64(ws.Syncs)/float64(max(mutations, 1)), "ratio")
	m.set("wal.bytes_per_mutation", float64(ws.Bytes)/float64(max(mutations, 1)), "B")
	if ix != nil {
		is := ix.Stats()
		m.set("truss.serve_p50_ms", median(serveMS), "ms")
		m.set("truss.serve_p90_ms", tail(serveMS, 90), "ms")
		m.set("truss.served", float64(is.Served), "count")
		m.set("truss.memo_share", float64(is.Served-is.Recomputed)/float64(max(is.Served, 1)), "share")
		m.set("truss.ingest_ms", median(deltaMS), "ms")
		m.set("truss.buckets", float64(is.Buckets), "count")
	}
	fmt.Fprintf(os.Stderr, "%s replay: %d mutations, %d engine queries\n", p.name, mutations, queries)
	return nil
}

// attachFor binds the analysis a serve-mixed spec names.
func attachFor(spec tripoll.QuerySpec) tripoll.AttachedAnalysis[tripoll.Unit, uint64] {
	switch spec.Analysis {
	case "closure":
		var out *tripoll.Joint2D
		return tripoll.ClosureTimeAnalysis[tripoll.Unit]().Bind(&out)
	case "localcounts":
		var out map[uint64]uint64
		return tripoll.VertexCountAnalysis[tripoll.Unit, uint64]().Bind(&out)
	default:
		var out uint64
		return tripoll.CountAnalysis[tripoll.Unit, uint64]().Bind(&out)
	}
}
