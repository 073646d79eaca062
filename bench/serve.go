package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	blp "repro"
	"repro/internal/serve"
	"repro/internal/store"
)

// serve-mixed sizes: the hot set, the open-loop rate, the share of the
// window phase A takes, and the latency limit phase A is held to.
const (
	serveScale      = 7
	serveHotSeeds   = 4
	serveFigDelta   = -4
	serveRate       = 30.0
	servePhaseA     = 0.4
	serveLatencyMax = 250 * time.Millisecond
	// serveCalibrations is how many reference-loop rounds run at each
	// phase boundary: the three boundaries are the only pauses in the load.
	serveCalibrations = 3
)

var (
	serveKernels  = []string{"bc", "bfs", "cc", "pr", "sssp", "ms"}
	serveModes    = []string{"none", "outer"}
	servePolicies = []string{"selective", "conventional", "partial:16", "throttle:2"}
)

// request is one generated request; due is when the open loop was due
// to send it.
type request struct {
	kind string // hit, run, sweep, figure or metrics
	path string
	body []byte
	run  *serve.RunRequest
	due  time.Time
}

// serveStats carries serve-mixed's per-layer numbers.
type serveStats struct {
	overheadMS []float64 // /v1/run client latency − server elapsed_ms
	respBytes  []float64
	openMS     []float64            // phase A latency from due time, every request
	classMS    map[string][]float64 // phase A latency from due time, per class
	queueMax   int64
	last       *serve.MetricsSnapshot
	rps        float64
	genLateMS  float64
	phaseCMS   float64
	payloads   [][]byte // result JSON, first answer per key
}

func (s *serveStats) layerValues() map[string]float64 {
	v := map[string]float64{
		"serve.overhead_ms_p50": median(s.overheadMS),
		"serve.resp_kib_p50":    median(s.respBytes) / 1024,
		"serve.queue_depth_max": float64(s.queueMax),
		"serve.hit_p50_ms":      median(s.classMS["hit"]),
		"serve.run_p50_ms":      median(s.classMS["run"]),
		"serve.sweep_p50_ms":    median(s.classMS["sweep"]),
		"serve.p95_ms":          percentile(s.openMS, 95),
		"serve.rps":             s.rps,
		"serve.phase_c_ms":      s.phaseCMS,
		"serve.gen_late_ms_max": s.genLateMS,
	}
	if m := s.last; m != nil {
		v["serve.rejected"] = float64(m.Rejected)
		v["blp.simulated"] = float64(m.Sims.Simulated)
		v["blp.cached"] = float64(m.Sims.Cached)
		v["blp.captured"] = float64(m.Sims.Captured)
		v["blp.replayed"] = float64(m.Sims.Replayed)
		v["blp.batched"] = float64(m.Sims.Batched)
		forks := m.Sims.SegHits + m.Sims.SegMisses + m.Sims.SegInvalidated + m.Sims.SegBypassed
		v["trace.seg_hit_ratio"] = ratio(float64(m.Sims.SegHits), float64(forks))
		c := m.Cache
		v["memo.hit_ratio"] = ratio(float64(c.Hits+c.Joined), float64(c.Hits+c.Joined+c.Misses))
	}
	return v
}

// serveMixed is the serve-mixed workload.
type serveMixed struct {
	cfg    config
	dir    string
	st     *store.Store
	srv    *serve.Server
	served chan error
	base   string
	client *http.Client

	rngMu     sync.Mutex
	rng       *rand.Rand
	fresh     uint64 // next fresh input seed
	hot       []serve.RunRequest
	kinds     deck[string]
	hotDeck   deck[int]
	runDeck   deck[serve.RunRequest]
	sweepDeck deck[string]

	mu    sync.Mutex
	seen  map[string]string // run key → the first result JSON answered for it
	asked []serve.RunRequest
	stats *serveStats
}

func newServeMixed(cfg config) *serveMixed {
	w := &serveMixed{
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.seed, 0x5e7e)),
		fresh: cfg.seed<<20 | 1<<16,
		seen:  map[string]string{},
		stats: &serveStats{classMS: map[string][]float64{}},
	}
	for i := uint64(1); i <= serveHotSeeds; i++ {
		for _, b := range serveKernels {
			for _, mode := range serveModes {
				w.hotDeck.cards = append(w.hotDeck.cards, len(w.hot))
				w.hot = append(w.hot, serve.RunRequest{Benchmark: b, Mode: mode,
					Scale: w.scale(), Seed: cfg.seed<<20 | i})
			}
		}
	}
	w.runDeck.cards = slices.Clone(w.hot[:len(serveKernels)*len(serveModes)])
	w.sweepDeck.cards = serveKernels
	for _, k := range []struct {
		kind string
		n    int
	}{{"hit", 12}, {"run", 5}, {"sweep", 2}, {"figure", 1}} {
		for range k.n {
			w.kinds.cards = append(w.kinds.cards, k.kind)
		}
	}
	return w
}

func (w *serveMixed) scale() int { return max(serveScale+w.cfg.delta, minScale) }

// start opens the store at w.dir and serves it on a loopback listener.
func (w *serveMixed) start() error {
	st, err := blp.OpenStore(w.dir, 0)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return err
	}
	w.st = st
	w.srv = serve.New(serve.Config{Jobs: w.cfg.jobs, Store: st})
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	return nil
}

// stop drains the server, waits for Serve to return and closes the store.
func (w *serveMixed) stop() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	w.srv = nil
	return errors.Join(err, w.st.Close())
}

func (w *serveMixed) setup(tr *tracer) error {
	dir, err := scratch(w.cfg, "serve-store-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: w.cfg.jobs, MaxIdleConnsPerHost: w.cfg.jobs,
	}}
	if _, err := inputsOf(tr, w.hotOptions()); err != nil {
		return err
	}
	if err := w.start(); err != nil {
		return err
	}
	warm := make([]request, 0, len(w.hot)+1)
	for i := range w.hot {
		warm = append(warm, runRequest("hit", &w.hot[i]))
	}
	warm = append(warm, figureRequest(w.cfg.delta))
	return w.each(warm, func(r request) error {
		_, err := w.do(r, tr, 0, 0)
		return err
	})
}

// each runs fn over reqs on cfg.jobs workers and joins their errors.
func (w *serveMixed) each(reqs []request, fn func(request) error) error {
	next := make(chan request, len(reqs))
	for _, r := range reqs {
		next <- r
	}
	close(next)
	errs := make([]error, w.cfg.jobs)
	var wg sync.WaitGroup
	for lane := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				if err := fn(r); err != nil && errs[lane] == nil {
					errs[lane] = err
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runRequest(kind string, rq *serve.RunRequest) request {
	body, _ := json.Marshal(rq) // a RunRequest always encodes
	return request{kind: kind, path: "/v1/run", body: body, run: rq}
}

func figureRequest(delta int) request {
	return request{kind: "figure", path: fmt.Sprintf("/v1/figures/4?delta=%d", serveFigDelta+delta)}
}

// deck deals its cards in a seeded random order, reshuffling after each
// full round, so every stretch of requests holds the mix in its stated
// proportions whatever the seed.
type deck[T any] struct{ cards, left []T }

func (d *deck[T]) deal(r *rand.Rand) T {
	if len(d.left) == 0 {
		d.left = slices.Clone(d.cards)
		r.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	c := d.left[0]
	d.left = d.left[1:]
	return c
}

// next deals the next request of the mix: per 20 requests, 12 hot runs,
// 5 fresh-seed runs, 2 fresh-seed sweeps and 1 figure.
func (w *serveMixed) next() request {
	w.rngMu.Lock()
	defer w.rngMu.Unlock()
	switch w.kinds.deal(w.rng) {
	case "hit":
		return runRequest("hit", &w.hot[w.hotDeck.deal(w.rng)])
	case "run":
		w.fresh++
		rq := w.runDeck.deal(w.rng)
		rq.Seed = w.fresh
		return runRequest("run", &rq)
	case "sweep":
		w.fresh++
		b := w.sweepDeck.deal(w.rng)
		var sw serve.SweepRequest
		for _, p := range servePolicies {
			sw.Runs = append(sw.Runs, serve.RunRequest{Benchmark: b, Mode: "outer", Scale: w.scale(), Seed: w.fresh, Policy: p})
		}
		body, _ := json.Marshal(sw) // a SweepRequest always encodes
		return request{kind: "sweep", path: "/v1/sweep", body: body}
	}
	return figureRequest(w.cfg.delta)
}

// reply is what one request returned.
type reply struct {
	service   time.Duration // send to last byte
	serverMS  float64       // the server's elapsed_ms (runs)
	bytes     int
	insts     uint64 // committed instructions freshly simulated for it
	cycles    int64
	simulated bool
}

// runAnswer is the part of a RunResponse or SweepItem the checks read.
type runAnswer struct {
	Key       string          `json:"key"`
	Cached    bool            `json:"cached"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Result    json.RawMessage `json:"result"`
	Error     string          `json:"error"`
}

// do sends one request and checks its answer: status 200, a result for
// every run, and the same result bytes every time a key is answered.
func (w *serveMixed) do(r request, tr *tracer, parent int64, lane int) (reply, error) {
	id, end := tr.begin(r.kind+" "+r.path, parent, lane, 0)
	defer end()
	_, endHTTP := tr.begin("http "+r.kind, id, lane, id)
	method, body := http.MethodGet, io.Reader(nil)
	if r.body != nil {
		method, body = http.MethodPost, bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(method, w.base+r.path, body)
	if err != nil {
		endHTTP()
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		endHTTP()
		return reply{}, fmt.Errorf("%s %s: %w", method, r.path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{service: time.Since(t0), bytes: len(data)}
	endHTTP()
	if err != nil {
		return rep, fmt.Errorf("%s %s: %w", method, r.path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("%s %s: status %d: %s", method, r.path, resp.StatusCode, bytes.TrimSpace(data))
	}
	_, endCheck := tr.begin("check "+r.kind, id, lane, id)
	defer endCheck()
	switch r.kind {
	case "hit", "run":
		var a runAnswer
		if err := json.Unmarshal(data, &a); err != nil {
			return rep, fmt.Errorf("%s: %w", r.path, err)
		}
		rep.serverMS = a.ElapsedMS
		return rep, w.checkRun(a, &rep)
	case "sweep":
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 1<<20)
		items := 0
		for sc.Scan() {
			var a runAnswer
			if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
				return rep, fmt.Errorf("sweep item: %w", err)
			}
			if err := w.checkRun(a, &rep); err != nil {
				return rep, err
			}
			items++
		}
		if items != len(servePolicies) {
			return rep, fmt.Errorf("sweep answered %d of %d runs", items, len(servePolicies))
		}
	case "figure":
		if !json.Valid(data) {
			return rep, errors.New("figure answer is not JSON")
		}
	case "metrics":
		snap, err := decodeMetrics(data)
		if err != nil {
			return rep, err
		}
		w.mu.Lock()
		w.stats.queueMax = max(w.stats.queueMax, snap.QueueDepth)
		w.stats.last = snap
		w.mu.Unlock()
	}
	return rep, nil
}

func (w *serveMixed) checkRun(a runAnswer, rep *reply) error {
	if a.Error != "" || len(a.Result) == 0 || string(a.Result) == "null" {
		return fmt.Errorf("run %s answered no result: %s", a.Key, a.Error)
	}
	if !a.Cached {
		var res struct {
			Cycles int64 `json:"cycles"`
			Stats  struct {
				Committed uint64 `json:"Committed"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(a.Result, &res); err != nil {
			return err
		}
		rep.insts += res.Stats.Committed
		rep.cycles += res.Cycles
		rep.simulated = true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	first, ok := w.seen[a.Key]
	if !ok {
		w.seen[a.Key] = string(a.Result)
		w.stats.payloads = append(w.stats.payloads, a.Result)
		return nil
	}
	if first != string(a.Result) {
		return fmt.Errorf("run %s answered different result bytes than before", a.Key)
	}
	return nil
}

func (w *serveMixed) measure(window time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{serve: w.stats, extra: map[string]float64{}}
	a := time.Duration(float64(window) * servePhaseA)
	calibrate := func() {
		for range serveCalibrations {
			m.calibrate(tr)
		}
	}
	calibrate()
	id, end := tr.begin("phase A: open loop", 0, 0, 0)
	w.openLoop(a, m, tr, id)
	end()
	m.peakRSS = peakRSSMiB()
	calibrate()
	id, end = tr.begin("phase B: closed loop", 0, 0, 0)
	w.closedLoop(window-a, m, tr, id)
	end()
	calibrate()
	// One last poll, so the server's counters cover phase B too.
	m.attempted++
	if _, err := w.do(request{kind: "metrics", path: "/metrics"}, tr, 0, 0); err != nil {
		m.fail("/metrics after phase B: %v", err)
	}

	late := 0
	for _, ms := range w.stats.openMS {
		if ms > 1000*serveLatencyMax.Seconds() {
			late++
		}
	}
	m.extra["open_p95_ms"] = percentile(w.stats.openMS, 95)
	m.extra["over_latency_limit"] = float64(late)
	m.extra["gen_late_ms_max"] = w.stats.genLateMS
	for _, k := range []string{"hit", "run", "sweep", "figure"} {
		m.extra[k+"_p50_ms"] = median(w.stats.classMS[k])
	}
	var err error
	m.results, err = w.hotResults()
	return m, err
}

// hotResults decodes the hot set's answers: the deterministic result set
// the simulated per-layer counts are taken from.
func (w *serveMixed) hotResults() ([]*blp.Result, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []*blp.Result
	for _, rq := range w.hot {
		o, err := rq.Options()
		if err != nil {
			return nil, err
		}
		var r blp.Result
		if err := json.Unmarshal([]byte(w.seen[o.Key()]), &r); err != nil {
			return nil, fmt.Errorf("hot result %s: %w", o.Key(), err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// openLoop sends requests at serveRate for d, each timed from when it was
// due, plus one /metrics poll a second; cfg.jobs workers share the
// connections.
func (w *serveMixed) openLoop(d time.Duration, m *measurement, tr *tracer, parent int64) {
	n := int(d.Seconds() * serveRate)
	polls := int(d.Seconds())
	reqs := make(chan request, n+polls) // sized to the number of sends
	start := time.Now()
	var late time.Duration
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		defer close(reqs)
		poll := 1
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
			for ; poll <= polls && time.Duration(poll)*time.Second <= due.Sub(start); poll++ {
				reqs <- request{kind: "metrics", path: "/metrics", due: start.Add(time.Duration(poll) * time.Second)}
			}
			time.Sleep(time.Until(due))
			late = max(late, time.Since(due))
			r := w.next()
			r.due = due
			if r.run != nil {
				w.mu.Lock()
				w.asked = append(w.asked, *r.run)
				w.mu.Unlock()
			}
			reqs <- r
		}
	}()

	var mu sync.Mutex
	var wg sync.WaitGroup
	for lane := 0; lane < w.cfg.jobs; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range reqs {
				rep, err := w.do(r, tr, parent, lane)
				lat := time.Since(r.due).Seconds()
				mu.Lock()
				m.attempted++
				if err != nil {
					m.fail("phase A %s: %v", r.kind, err)
				} else if r.kind != "metrics" {
					w.stats.openMS = append(w.stats.openMS, 1000*lat)
					w.stats.classMS[r.kind] = append(w.stats.classMS[r.kind], 1000*lat)
					w.stats.respBytes = append(w.stats.respBytes, float64(rep.bytes))
					if r.run != nil {
						w.stats.overheadMS = append(w.stats.overheadMS, 1000*rep.service.Seconds()-rep.serverMS)
					}
					if rep.simulated && r.run != nil {
						m.simHostSeconds += rep.serverMS / 1000
						m.simCycles += rep.cycles
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	gen.Wait()
	w.stats.genLateMS = max(w.stats.genLateMS, 1000*late.Seconds())
}

// closedLoop runs cfg.jobs clients back to back for d. Its request
// latencies, throughput and simulated instructions are the workload's
// op_p50_ms, ops_per_s and sim_mips: unlike phase A's latencies they do
// not pass through queueing at a fixed arrival rate, which on a host
// whose speed varies amplifies every slow spell.
func (w *serveMixed) closedLoop(d time.Duration, m *measurement, tr *tracer, parent int64) {
	var mu sync.Mutex
	var done int
	var insts uint64
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < w.cfg.jobs; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				r := w.next()
				t0 := time.Now()
				rep, err := w.do(r, tr, parent, lane)
				lat := time.Since(t0).Seconds()
				mu.Lock()
				m.attempted++
				if err != nil {
					m.fail("phase B %s: %v", r.kind, err)
				} else {
					done++
					insts += rep.insts
					m.ops = append(m.ops, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	m.insts += insts
	m.simMIPS = float64(insts) / wall / 1e6
	m.opsPerSec = float64(done) / wall
	w.stats.rps = float64(done) / wall
}

// finish is phase C: restart on the same store and re-ask every phase-A
// run. Each answer must repeat the first answer's bytes, and the new
// server must simulate nothing.
func (w *serveMixed) finish(m *measurement) {
	if err := w.stop(); err != nil {
		m.fail("phase C shutdown: %v", err)
		return
	}
	if err := w.start(); err != nil {
		m.fail("phase C restart: %v", err)
		return
	}
	reqs := make([]request, len(w.asked))
	for i := range w.asked {
		reqs[i] = runRequest("run", &w.asked[i])
	}
	t0 := time.Now()
	err := w.each(reqs, func(r request) error {
		_, err := w.do(r, nil, 0, 0)
		return err
	})
	w.stats.phaseCMS = 1000 * time.Since(t0).Seconds()
	m.attempted += len(reqs)
	m.extra["phase_c_ms"] = w.stats.phaseCMS
	if err != nil {
		m.fail("phase C: %v", err)
	}
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		m.fail("phase C /metrics: %v", err)
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	snap, derr := decodeMetrics(data)
	switch {
	case err != nil || derr != nil:
		m.fail("phase C /metrics: %v", errors.Join(err, derr))
	case snap.Sims.Simulated != 0:
		m.fail("phase C simulated %d runs; every re-asked run should come from the store", snap.Sims.Simulated)
	}
}

func decodeMetrics(data []byte) (*serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &snap, nil
}

// programs returns the hot set's programs for one seed: the other seeds
// run the same code over equally sized inputs.
func (w *serveMixed) programs() ([]layerInput, error) {
	return inputsOf(nil, w.hotOptions()[:len(serveKernels)*len(serveModes)])
}

// hotOptions is the hot set as simulation options.
func (w *serveMixed) hotOptions() []blp.Options {
	opts := make([]blp.Options, len(w.hot))
	for i, rq := range w.hot {
		opts[i], _ = rq.Options() // the hot set is valid by construction
	}
	return opts
}

func (w *serveMixed) close() {
	w.stop()
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
