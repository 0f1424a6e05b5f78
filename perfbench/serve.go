package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tripoll"
	"tripoll/datagen"
)

// serveParams sizes one tripolld serving mix. Both mixes are open loop:
// queries arrive on a seeded Poisson schedule on one connection, ingests
// at a fixed rate on a second one.
type serveParams struct {
	name         string
	events       int     // RedditLike events; the first seedFrac seed tripolld
	seedFrac     float64 // the rest are ingested in time order
	qps          float64 // query arrival rate
	ingestPerSec float64 // ingest batch rate
	batch        int     // edges per ingest
	advanceEvery int     // ingests per /v1/advance
	limit        time.Duration
	truss        bool          // -truss-index and the truss query mix
	walSync      bool          // -wal-sync always (else never)
	setups       int           // tripolld starts per run; setup_s is their median
	surveyFor    time.Duration // survey_s times the final survey this long in all
}

var serveMixed = serveParams{
	name: "serve-mixed", events: 120_000, seedFrac: 0.75,
	qps: 8, ingestPerSec: 4, batch: 192, advanceEvery: 8,
	limit: 250 * time.Millisecond, walSync: true, setups: 5, surveyFor: 12 * time.Second,
}

var serveTruss = serveParams{
	name: "serve-truss", events: 220_000, seedFrac: 0.5,
	qps: 6, ingestPerSec: 2, batch: 1024, advanceEvery: 8,
	limit: 500 * time.Millisecond, truss: true, setups: 5, surveyFor: 12 * time.Second,
}

func (p serveParams) scaled(f float64) serveParams {
	p.events = int(math.Max(2000, float64(p.events)*f))
	if f < 1 {
		p.setups = 1
		p.surveyFor = 0
	}
	return p
}

// streamInput is a serve workload's generated input and schedule.
type streamInput struct {
	seed   []tripoll.TemporalEdge
	ops    []op                // queries and ingests in due order
	specs  []tripoll.QuerySpec // final-epoch verification set: every analysis in the mix
	t0, t1 uint64              // time range of the whole stream
}

type opKind int

const (
	opQuery opKind = iota
	opIngest
)

// op is one scheduled request.
type op struct {
	due    time.Duration
	kind   opKind
	spec   tripoll.QuerySpec      // opQuery
	batch  []tripoll.TemporalEdge // opIngest
	cutoff uint64                 // opIngest: advance to this watermark after the ingest, when > 0
	probe  tripoll.QuerySpec      // opIngest: asked after the ack, to time visibility
}

func genStream(p serveParams, seed int64, seconds time.Duration) streamInput {
	// The event stream comes from the generator's fixed seed, like a fixed
	// dataset; seed relabels its users and draws the request schedule.
	rp := datagen.DefaultRedditParams()
	rp.Events = p.events
	rp.Users = uint64(max(16, p.events/8))
	all := datagen.RedditLike(rp)
	rng := rand.New(rand.NewSource(seed))
	var maxID uint64
	for _, e := range all {
		maxID = max(maxID, e.U, e.V)
	}
	perm := rng.Perm(int(maxID) + 1)
	for i, e := range all {
		all[i].U, all[i].V = uint64(perm[e.U]), uint64(perm[e.V])
	}
	n := int(float64(len(all)) * p.seedFrac)
	in := streamInput{seed: all[:n], t0: all[0].Time, t1: all[len(all)-1].Time}

	// Ingests: consecutive batches of the remaining events at a fixed
	// rate; every advanceEvery-th one also advances the watermark so the
	// live window keeps the seed's event count.
	var ingests []op
	nIngest := int(p.ingestPerSec * seconds.Seconds())
	for j := 0; j < nIngest; j++ {
		lo := n + j*p.batch
		if lo >= len(all) {
			break
		}
		hi := min(lo+p.batch, len(all))
		o := op{due: time.Duration((float64(j) + 0.5) / p.ingestPerSec * float64(time.Second)), kind: opIngest, batch: all[lo:hi]}
		if (j+1)%p.advanceEvery == 0 {
			o.cutoff = all[hi-n].Time
		}
		// serve-mixed probes with a whole-graph count, which the reference
		// model checks at every epoch; serve-truss with an index-served
		// maxtruss over the newest cells, so no probe traverses.
		o.probe = tripoll.QuerySpec{Analysis: "count"}
		if p.truss {
			o.probe = windowSpec("maxtruss", in, max(cellOf(in, all[hi-1].Time)-1, 0))
		}
		ingests = append(ingests, o)
	}
	frontier := func(due time.Duration) uint64 {
		f := all[n-1].Time
		for _, o := range ingests {
			if o.due > due {
				break
			}
			f = o.batch[len(o.batch)-1].Time
		}
		return f
	}
	cutoffAt := func(due time.Duration) uint64 {
		var c uint64
		for _, o := range ingests {
			if o.due > due {
				break
			}
			if o.cutoff > 0 {
				c = o.cutoff
			}
		}
		return max(c, all[0].Time)
	}

	// Queries: a Poisson process conditioned on its count, so every run of
	// a given length holds the same number of queries.
	nq := int(math.Round(p.qps * seconds.Seconds()))
	dues := make([]float64, nq)
	for i := range dues {
		dues[i] = rng.Float64() * seconds.Seconds()
	}
	sort.Float64s(dues)
	// The mix is drawn by quota, not independently per query: every seed
	// asks each question the same number of times, in a different order
	// at different times, so a run's latency percentiles do not depend on
	// how many expensive questions a seed happened to draw.
	var queries []op
	if p.truss {
		menu, weights := trussMenu()
		for i, m := range quota(weights, nq, rng) {
			due := time.Duration(dues[i] * float64(time.Second))
			queries = append(queries, op{due: due, kind: opQuery, spec: menu[m].spec(in, cutoffAt(due), frontier(due))})
		}
		in.specs = finalTrussSpecs(in, frontier(seconds))
	} else {
		specs, weights := mixedSpecs(in)
		for i, m := range quota(weights, nq, rng) {
			queries = append(queries, op{due: time.Duration(dues[i] * float64(time.Second)), kind: opQuery, spec: specs[m]})
		}
		in.specs = specs
	}
	in.ops = mergeOps(queries, ingests)
	return in
}

func mergeOps(a, b []op) []op {
	out := make([]op, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j == len(b) || (i < len(a) && a[i].due <= b[j].due) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// quota returns n indices into weights, index i appearing in proportion
// to weights[i] (largest remainders), in an order shuffled by rng.
func quota(weights []float64, n int, rng *rand.Rand) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make([]int, 0, n)
	rem := make([]float64, len(weights))
	for i, w := range weights {
		exact := w / total * float64(n)
		for k := 0; k < int(exact); k++ {
			out = append(out, i)
		}
		rem[i] = exact - math.Floor(exact)
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for k := 0; len(out) < n; k++ {
		out = append(out, order[k%len(order)])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mixedSpecs is serve-mixed's question set, count, closure and
// localcounts under a δ ladder and five time windows, with Zipf(0.6)
// popularity weights in a fixed order: broadest questions first, so most
// queries are whole traversals rather than narrow, pruned ones, and some
// repeat within an epoch and hit the result cache.
func mixedSpecs(in streamInput) ([]tripoll.QuerySpec, []float64) {
	at := func(f float64) *uint64 {
		v := in.t0 + uint64(f*float64(in.t1-in.t0))
		return &v
	}
	type window struct{ from, until *uint64 }
	windows := []window{{}, {from: at(0.3)}, {until: at(0.75)}, {from: at(0.6)}, {from: at(0.5), until: at(0.9)}}
	deltas := []*uint64{nil, u64(7 * 86400), u64(2 * 86400), u64(12 * 3600)}
	var specs []tripoll.QuerySpec
	var weights []float64
	for _, w := range windows {
		for _, d := range deltas {
			for _, a := range []string{"count", "closure", "localcounts"} {
				specs = append(specs, tripoll.QuerySpec{Analysis: a, Delta: d, From: w.from, Until: w.until})
				weights = append(weights, 1/math.Pow(float64(len(specs)), 0.6))
			}
		}
	}
	return specs, weights
}

func u64(v uint64) *uint64 { return &v }

// trussCells is how many equal time cells the stream's range is cut into;
// truss queries ask about one or two cells near the ingest frontier, so
// the spans shift as the stream advances and older ones repeat.
const trussCells = 64

func cellOf(in streamInput, t uint64) int {
	return int(float64(t-in.t0) / float64(in.t1-in.t0+1) * trussCells)
}

func cellWindow(in streamInput, c, width int) tripoll.TrussWindow {
	w := float64(in.t1-in.t0+1) / trussCells
	return tripoll.TrussWindow{From: in.t0 + uint64(float64(c)*w), Until: in.t0 + uint64(float64(c+width)*w) - 1}
}

// trussQuery is one entry of serve-truss's question menu: an analysis
// over the cell(s) back cells behind the ingest frontier.
type trussQuery struct {
	analysis string
	k        int // spantruss only
	back     int
}

func (q trussQuery) spec(in streamInput, cutoff, frontier uint64) tripoll.QuerySpec {
	c := max(cellOf(in, frontier)-q.back, cellOf(in, cutoff), 0)
	if q.analysis == "spantruss" {
		return spanTrussSpec(in, c, q.k)
	}
	return windowSpec(q.analysis, in, c)
}

// trussMenu weights spantruss (k 3 and 4) 50%, maxtruss 30% and trussness
// 20%, over spans one to six cells behind the frontier, recent ones most.
func trussMenu() ([]trussQuery, []float64) {
	kinds := []struct {
		q trussQuery
		w float64
	}{{trussQuery{analysis: "spantruss", k: 3}, 0.25}, {trussQuery{analysis: "spantruss", k: 4}, 0.25},
		{trussQuery{analysis: "maxtruss"}, 0.3}, {trussQuery{analysis: "trussness"}, 0.2}}
	backs := []float64{0.35, 0.25, 0.17, 0.11, 0.07, 0.05}
	var menu []trussQuery
	var weights []float64
	for _, k := range kinds {
		for b, w := range backs {
			q := k.q
			q.back = b + 1
			menu = append(menu, q)
			weights = append(weights, k.w*w)
		}
	}
	return menu, weights
}

func spanTrussSpec(in streamInput, c, k int) tripoll.QuerySpec {
	args, _ := json.Marshal(tripoll.SpanTrussQueryArgs{K: k, Spans: []tripoll.TrussWindow{cellWindow(in, c, 2), cellWindow(in, c+2, 2)}})
	return tripoll.QuerySpec{Analysis: "spantruss", Args: args}
}

func windowSpec(analysis string, in streamInput, c int) tripoll.QuerySpec {
	w := cellWindow(in, c, 4)
	return tripoll.QuerySpec{Analysis: analysis, From: u64(w.From), Until: u64(w.Until)}
}

func finalTrussSpecs(in streamInput, frontier uint64) []tripoll.QuerySpec {
	hi := cellOf(in, frontier)
	var specs []tripoll.QuerySpec
	for _, back := range []int{1, 3, 5} {
		c := max(hi-back, 0)
		specs = append(specs, spanTrussSpec(in, c, 3), spanTrussSpec(in, c, 4),
			windowSpec("maxtruss", in, c), windowSpec("trussness", in, c))
	}
	return specs
}

// ---- tripolld process ----

type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error
	once sync.Once
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches tripolld and returns once /healthz answers, with
// the time that took: load, build, WAL open, stream seed and truss index.
func startDaemon(bin, logPath string, args ...string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{cmd: exec.Command(bin, append(args, "-addr", addr)...), base: "http://" + addr, log: logf, done: make(chan error, 1)}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start tripolld: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	for time.Since(t0) < 150*time.Second {
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, 0, fmt.Errorf("tripolld exited during start-up (%v); log: %s", err, logTail(logPath))
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, 0, errors.New("tripolld did not answer /healthz within 150s")
}

// peakRSS is tripolld's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop kills tripolld and waits for it to exit.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		<-d.done
		d.log.Close()
	})
}

func logTail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// ---- HTTP client ----

// client is one keep-alive connection to tripolld.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, base: base, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path and returns the status and response body.
func (c *client) post(parent int, path string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	var (
		code int
		resp []byte
	)
	c.tr.do(parent, "tripolld", "POST "+strings.SplitN(path, "?", 2)[0], func() {
		var r *http.Response
		r, err = c.hc.Post(c.base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return
		}
		resp, err = io.ReadAll(r.Body)
		r.Body.Close()
		code = r.StatusCode
	})
	return code, resp, err
}

// queryReply is the part of a /v1/query?wait=1 reply the benchmark reads.
type queryReply struct {
	Result *struct {
		Epoch  uint64          `json:"epoch"`
		Value  json.RawMessage `json:"value"`
		Cached bool            `json:"cached"`
	} `json:"result"`
	Error string `json:"error"`
}

type mutationReply struct {
	Epoch uint64 `json:"epoch"`
}

// query submits spec and waits for its answer.
func (c *client) query(parent int, spec tripoll.QuerySpec) (reply queryAnswer, err error) {
	code, body, err := c.post(parent, "/v1/query?wait=1", spec)
	reply.bytes = len(body)
	if err != nil {
		return reply, err
	}
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		return reply, fmt.Errorf("query %s: status %d: %v", spec.Analysis, code, err)
	}
	if code != http.StatusOK || r.Result == nil {
		return reply, fmt.Errorf("query %s: status %d: %s", spec.Analysis, code, r.Error)
	}
	reply.epoch, reply.value, reply.cached = r.Result.Epoch, r.Result.Value, r.Result.Cached
	return reply, nil
}

// queryAnswer is what the benchmark keeps of one query reply.
type queryAnswer struct {
	epoch  uint64
	value  json.RawMessage
	cached bool
	bytes  int
}

func (c *client) mutate(parent int, path string, body any) (uint64, error) {
	code, resp, err := c.post(parent, path, body)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %s", path, code, resp)
	}
	var r mutationReply
	if err := json.Unmarshal(resp, &r); err != nil {
		return 0, fmt.Errorf("%s: %v", path, err)
	}
	return r.Epoch, nil
}

type wireEdge struct {
	U uint64 `json:"u"`
	V uint64 `json:"v"`
	T uint64 `json:"t"`
}

func ingestBody(batch []tripoll.TemporalEdge) any {
	edges := make([]wireEdge, len(batch))
	for i, e := range batch {
		edges[i] = wireEdge{U: e.U, V: e.V, T: e.Time}
	}
	return map[string]any{"edges": edges}
}

func (c *client) epoch() (uint64, error) {
	r, err := c.hc.Get(c.base + "/v1/graphs")
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	var gs []struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(r.Body).Decode(&gs); err != nil || len(gs) != 1 {
		return 0, fmt.Errorf("/v1/graphs: %v (%d graphs)", err, len(gs))
	}
	return gs[0].Epoch, nil
}

// ---- the run ----

// answer is one successful query reply, for the visibility computation.
type answer struct {
	done  time.Duration
	epoch uint64
}

// loadStats is what the open-loop load measured.
type loadStats struct {
	queryLat, ingestLat, visibleLat []float64
	tracedLat, plainLat             []float64 // traced runs: queries with and without spans
	respBytes                       []float64
	good                            int
	maxLate                         time.Duration
	elapsed                         time.Duration // from the schedule's start to the last reply
	finalEpoch                      uint64
}

func runServe(cfg config, p serveParams) (*outcome, error) {
	if cfg.tripolld == "" {
		return nil, errors.New("serve workloads need -tripolld")
	}
	p = p.scaled(cfg.scale)
	in := genStream(p, cfg.seed, cfg.seconds)
	o := &outcome{metrics: metrics{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	seedPath := filepath.Join(cfg.work, "seed.txt")
	if err := tripoll.WriteEdgeListFile(seedPath, in.seed); err != nil {
		return nil, err
	}
	startArgs := func(i int) []string {
		args := []string{"-input", seedPath, "-ranks", "4", "-transport", "channel", "-wal", filepath.Join(cfg.work, fmt.Sprintf("wal-%d", i))}
		if !p.walSync {
			args = append(args, "-wal-sync", "never")
		}
		if p.truss {
			args = append(args, "-truss-index")
		}
		return args
	}
	// The final-epoch graph follows from the inputs alone, so it is built
	// first and survey_s times its survey in two blocks, one before
	// tripolld starts and one after it stops: the blocks lie a run apart,
	// so their median averages the host's drift over the whole run, and
	// the survey never shares the CPUs with tripolld.
	w, err := tripoll.NewWorldWith(4, tripoll.WorldOptions{})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	final := plannedFinal(in).liveEdges()
	ref := newReference(tripoll.BuildTemporal(w, final))
	var surveys []float64
	if !cfg.trace {
		if surveys, err = ref.timeFused(p.surveyFor / 2); err != nil {
			return nil, err
		}
	}

	// Set-up: start tripolld setups times, each on a fresh WAL directory;
	// the last start serves the load.
	var setups []float64
	var d *daemon
	runs := p.setups
	if cfg.trace {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		root := tr.begin(0, "bench", "setup")
		dd, took, err := startDaemon(cfg.tripolld, filepath.Join(cfg.work, fmt.Sprintf("tripolld-%d.log", i)), startArgs(i)...)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < runs-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()

	m := newModel(in.seed)
	ls, err := driveLoad(o, d.base, in, p, m, tr)
	if err != nil {
		return nil, err
	}
	memMB, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := verifyFinal(o, newClient(d.base, nil), in, m, final, ref, ls.finalEpoch); err != nil {
		return nil, err
	}
	mt := o.metrics
	if !cfg.trace {
		d.stop()
		after, err := ref.timeFused(p.surveyFor / 2)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: survey median %.2f ms before set-up (%d surveys), %.2f ms after the load (%d)\n",
			p.name, median(surveys)*1e3, len(surveys), median(after)*1e3, len(after))
		surveyS := median(append(surveys, after...))
		mt.set("setup_s", median(setups), "s")
		mt.set("survey_s", surveyS, "s")
		mt.set("goodput_qps", float64(ls.good)/ls.elapsed.Seconds(), "1/s")
		mt.set("answered_share", 1-float64(o.failed)/float64(o.attempted), "share")
		mt.set("mem_mb", memMB, "MB")
		return o, nil
	}
	zeroLayers(mt)
	mt.set("tripolld.query_p50_ms", median(ls.queryLat), "ms")
	mt.set("tripolld.query_p90_ms", tail(ls.queryLat, 90), "ms")
	mt.set("tripolld.ingest_p50_ms", median(ls.ingestLat), "ms")
	mt.set("tripolld.ingest_p90_ms", tail(ls.ingestLat, 90), "ms")
	mt.set("tripolld.visible_p50_ms", median(ls.visibleLat), "ms")
	mt.set("tripolld.visible_p90_ms", tail(ls.visibleLat, 90), "ms")
	mt.set("tripolld.resp_bytes", median(ls.respBytes), "B")
	mt.set("trace.overhead_ms", median(ls.tracedLat)-median(ls.plainLat), "ms")
	if err := replay(o, cfg, p, in, tr); err != nil {
		return nil, err
	}
	layerMetrics(mt, tr)
	return o, tr.write(tracePath(cfg), envStamp(cfg))
}

// driveLoad runs the open-loop schedule on two connections: queries on
// one; ingests, their visibility probes and advances on the other. Every
// request is timed from its due time.
func driveLoad(o *outcome, base string, in streamInput, p serveParams, m *model, tr *tracer) (loadStats, error) {
	var ls loadStats
	qc, ic := newClient(base, tr), newClient(base, tr)
	defer qc.close()
	defer ic.close()
	e0, err := qc.epoch()
	if err != nil {
		return ls, err
	}
	m.record(e0)
	ls.finalEpoch = e0

	type queryRec struct {
		spec  tripoll.QuerySpec
		epoch uint64
		value json.RawMessage
		lat   float64
		ok    bool
	}
	type ingestRec struct {
		due, ack time.Duration
		epoch    uint64
		ok       bool
	}
	var (
		mu       sync.Mutex
		answers  []answer
		qrecs    []queryRec
		irecs    []ingestRec
		probes   []queryRec // visibility probes on the ingest connection
		late     [2]time.Duration
		attempts [2]int
		failures [2]int
		hits     int // cached answers on the query connection
		wg       sync.WaitGroup
	)
	limit := ms(p.limit)
	start := time.Now()
	// A request still unsent a minute after the schedule ends is counted
	// as failed instead, so an overloaded program cannot hold the run past
	// its time limit.
	giveUp := in.ops[len(in.ops)-1].due + time.Minute
	wait := func(conn int, due time.Duration) bool {
		if dt := time.Until(start.Add(due)); dt > 0 {
			time.Sleep(dt)
		} else {
			late[conn] = max(late[conn], -dt)
		}
		return time.Since(start) < giveUp
	}
	var queries, ingests []op
	for _, x := range in.ops {
		if x.kind == opQuery {
			queries = append(queries, x)
		} else {
			ingests = append(ingests, x)
		}
	}
	// A traced run sends every other query through an untraced client on
	// the same connection, for the tracing overhead.
	plain := &client{hc: qc.hc, base: base}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, x := range queries {
			attempts[0]++
			if !wait(0, x.due) {
				failures[0]++
				qrecs = append(qrecs, queryRec{spec: x.spec, lat: max(ms(time.Since(start)-x.due), limit)})
				continue
			}
			traced := tr != nil && i%2 == 0
			c, root := plain, 0
			if traced {
				c, root = qc, tr.begin(0, "bench", "query")
			}
			ans, err := c.query(root, x.spec)
			tr.end(root)
			done := time.Since(start)
			lat := ms(done - x.due)
			rec := queryRec{spec: x.spec, epoch: ans.epoch, value: ans.value, lat: lat, ok: err == nil}
			if err != nil {
				fmt.Fprintln(os.Stderr, "query:", err)
				failures[0]++
				rec.lat = max(lat, limit)
			} else {
				mu.Lock()
				answers = append(answers, answer{done: done, epoch: ans.epoch})
				mu.Unlock()
				ls.respBytes = append(ls.respBytes, float64(ans.bytes))
				if ans.cached {
					hits++
				}
				if traced {
					ls.tracedLat = append(ls.tracedLat, lat)
				} else {
					ls.plainLat = append(ls.plainLat, lat)
				}
			}
			qrecs = append(qrecs, rec)
		}
	}()
	go func() {
		defer wg.Done()
		for _, x := range ingests {
			attempts[1]++
			if !wait(1, x.due) {
				failures[1]++
				irecs = append(irecs, ingestRec{due: x.due, ack: time.Since(start)})
				continue
			}
			root := tr.begin(0, "bench", "ingest")
			epoch, err := ic.mutate(root, "/v1/ingest", ingestBody(x.batch))
			ack := time.Since(start)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ingest:", err)
				failures[1]++
				irecs = append(irecs, ingestRec{due: x.due, ack: ack})
				tr.end(root)
				continue
			}
			m.ingest(x.batch)
			m.record(epoch)
			irecs = append(irecs, ingestRec{due: x.due, ack: ack, epoch: epoch, ok: true})
			attempts[1]++
			pa, err := ic.query(root, x.probe)
			if err != nil {
				fmt.Fprintln(os.Stderr, "visibility query:", err)
				failures[1]++
			} else {
				done := time.Since(start)
				mu.Lock()
				answers = append(answers, answer{done: done, epoch: pa.epoch})
				mu.Unlock()
				probes = append(probes, queryRec{spec: x.probe, epoch: pa.epoch, value: pa.value, ok: true})
			}
			if x.cutoff > 0 {
				attempts[1]++
				epoch, err := ic.mutate(root, "/v1/advance", map[string]uint64{"cutoff": x.cutoff})
				if err != nil {
					fmt.Fprintln(os.Stderr, "advance:", err)
					failures[1]++
				} else {
					m.advance(x.cutoff)
					m.record(epoch)
				}
			}
			tr.end(root)
		}
	}()
	wg.Wait()
	ls.elapsed = time.Since(start)
	ls.maxLate = max(late[0], late[1])
	o.attempted += attempts[0] + attempts[1]
	o.failed += failures[0] + failures[1]
	ls.finalEpoch = m.epoch

	// Every answer is checked: per connection, epochs never decrease;
	// unplanned counts match the reference model at their epoch; one spec
	// at one epoch has one answer. A wrong answer is a failed operation.
	seen := map[string]string{}
	checkAnswers := func(conn string, recs []queryRec) (bad int) {
		var last uint64
		for i := range recs {
			r := &recs[i]
			if !r.ok {
				continue
			}
			wrong := false
			if r.epoch < last {
				o.mismatch("%s connection: epoch went back from %d to %d", conn, last, r.epoch)
				wrong = true
			}
			last = max(last, r.epoch)
			key := specKey(r.spec) + "@" + strconv.FormatUint(r.epoch, 10)
			canon, err := canonical(r.value)
			switch prev, dup := seen[key]; {
			case err != nil:
				o.mismatch("%s: undecodable value: %v", key, err)
				wrong = true
			case dup && prev != canon:
				o.mismatch("%s: two different answers at one epoch", key)
				wrong = true
			default:
				seen[key] = canon
			}
			if r.spec.Analysis == "count" && !r.spec.HasPlan() {
				if want, ok := m.counts[r.epoch]; !ok || canon != strconv.FormatUint(want, 10) {
					o.mismatch("count at epoch %d is %s; reference %d (epoch known: %v)", r.epoch, canon, want, ok)
					wrong = true
				}
			}
			if wrong {
				r.ok = false
				r.lat = max(r.lat, limit)
				bad++
			}
		}
		return bad
	}
	o.failed += checkAnswers("query", qrecs) + checkAnswers("ingest", probes)

	for _, r := range qrecs {
		ls.queryLat = append(ls.queryLat, r.lat)
		if r.ok && r.lat <= limit {
			ls.good++
		}
	}
	for _, r := range irecs {
		lat := ms(r.ack - r.due)
		if !r.ok {
			ls.ingestLat = append(ls.ingestLat, max(lat, limit))
			ls.visibleLat = append(ls.visibleLat, max(lat, limit))
			continue
		}
		ls.ingestLat = append(ls.ingestLat, lat)
		vis := math.Inf(1)
		for _, a := range answers {
			if a.epoch >= r.epoch && a.done >= r.due {
				vis = math.Min(vis, ms(a.done-r.due))
			}
		}
		if math.IsInf(vis, 1) {
			vis = max(lat, limit)
		}
		ls.visibleLat = append(ls.visibleLat, vis)
	}
	fmt.Fprintf(os.Stderr, "%s: latency ms p50/p90: query %.1f/%.1f, ingest %.1f/%.1f, visible %.1f/%.1f\n", p.name,
		median(ls.queryLat), tail(ls.queryLat, 90), median(ls.ingestLat), tail(ls.ingestLat, 90),
		median(ls.visibleLat), tail(ls.visibleLat, 90))
	fmt.Fprintf(os.Stderr, "%s: %d queries (%d cached), %d ingests, epochs %d..%d, generator ran at most %v late\n",
		p.name, len(qrecs), hits, len(irecs), e0, ls.finalEpoch, ls.maxLate.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "%s: query latency deciles (ms):", p.name)
	for d := 10.0; d < 100; d += 10 {
		fmt.Fprintf(os.Stderr, " %.1f", percentile(ls.queryLat, d))
	}
	fmt.Fprintln(os.Stderr)
	return ls, nil
}

func specKey(s tripoll.QuerySpec) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// canonical re-encodes a JSON value with sorted object keys and exact
// numbers, so two encodings of one value compare equal.
func canonical(raw []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	b, err := json.Marshal(v)
	return string(b), err
}
