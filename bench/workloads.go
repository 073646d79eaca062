package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"maps"
	"slices"
	"sync"
	"time"

	blp "repro"
	"repro/internal/kernels"
)

// minScale mirrors the figures' input-scale floor.
const minScale = 6

// scale is benchmark b's default input scale plus delta, floored at
// minScale exactly as the figures floor it.
func scale(b string, delta int) int {
	return max(blp.DefaultScale(b)+delta, minScale)
}

// inputsOf builds every distinct workload opts simulate, each inside a
// kernels.Build span, and returns their single-thread programs. Set-up
// calls it so the window starts on a warm kernels.Build cache; the layer
// drivers run over what it returns.
func inputsOf(tr *tracer, opts []blp.Options) ([]layerInput, error) {
	var in []layerInput
	done := map[kernels.Spec]bool{}
	for _, o := range opts {
		spec := kernels.Spec{Kernel: o.Benchmark, Scale: o.Scale, Seed: o.Seed, Mode: o.Mode}
		if done[spec] {
			continue
		}
		done[spec] = true
		_, end := tr.begin("kernels.Build "+describe(o), 0, 0, 0)
		w, err := kernels.Build(spec)
		end()
		if err != nil {
			return nil, err
		}
		in = append(in, layerInput{name: describe(o), prog: w.Progs[0], mem: w.Mem})
	}
	return in, nil
}

func describe(o blp.Options) string {
	return fmt.Sprintf("%s/%v/s%d", o.Benchmark, o.Mode, o.Scale)
}

// digestResults is the sim digest: sha256 over every Result's JSON, in
// input order, followed by any extra text (figure tables).
func digestResults(results []*blp.Result, extra ...string) (string, error) {
	h := sha256.New()
	for _, r := range results {
		data, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		h.Write(data)
	}
	for _, s := range extra {
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// op is one timed operation of a simulation workload. Its key names what
// ran — a configuration, one kernel's sweep, a campaign pass — and repeats
// once per pass with the same inputs.
type op struct {
	key     string
	seconds float64
	insts   uint64 // committed instructions it simulated
}

// modeDigest returns the most frequent digest, the earliest on a tie.
func modeDigest(ds []string) string {
	count := map[string]int{}
	best := ""
	for _, d := range ds {
		count[d]++
		if count[d] > count[best] {
			best = d
		}
	}
	return best
}

// simPass is what one pass of a simulation workload produced.
type simPass struct {
	ops     []op
	results []*blp.Result // every simulated result, in input order
	digest  string
	runner  *blp.RunnerStats
	cache   *blp.CacheStats
	extra   map[string]float64
}

// runPasses repeats pass until the window is spent. A pass starts only
// while the previous pass's duration still fits in the window, and at
// least two run so the digest is compared across passes. A failed pass
// ends the window.
//
// The window's digest is the one most passes produced. A pass that
// produced another is counted in nondeterministic_passes and warned
// about, not failed: the Runner's wrong-path segment cache makes some
// replayed results depend on how concurrent replays interleave (Fig7's
// inner-sliced reserve sweeps in about one pass in fifty, timing-sweep
// more rarely), a simulator bug this benchmark reports but cannot fix.
//
// The host's speed varies in bursts, so rates come from each key's
// median time rather than from pass walls: one pass at median speed
// takes the sum of those medians, with concurrency ops running at once.
func runPasses(window time.Duration, concurrency int, tr *tracer, pass func(tr *tracer, parent int64) (*simPass, error)) *measurement {
	m := &measurement{extra: map[string]float64{}}
	begin := time.Now()
	var last time.Duration
	var passes []*simPass
	times := map[string][]float64{}
	for n := 0; n < 2 || time.Since(begin)+last <= window; n++ {
		m.calibrate(tr)
		id, end := tr.begin(fmt.Sprintf("pass %d", n), 0, 0, 0)
		t0 := time.Now()
		p, err := pass(tr, id)
		last = time.Since(t0)
		end()
		if err != nil {
			m.attempted++
			m.fail("pass %d: %v", n, err)
			break
		}
		for _, o := range p.ops {
			times[o.key] = append(times[o.key], o.seconds)
			m.ops = append(m.ops, o.seconds)
			m.simHostSeconds += o.seconds
			m.insts += o.insts
		}
		for _, r := range p.results {
			m.simCycles += r.Cycles
		}
		m.attempted += len(p.ops)
		passes = append(passes, p)
	}
	m.calibrate(tr)
	m.peakRSS = peakRSSMiB()
	if len(passes) == 0 {
		return m
	}

	digests := make([]string, len(passes))
	for i, p := range passes {
		digests[i] = p.digest
	}
	m.digest = modeDigest(digests)
	var modal *simPass
	for n, p := range passes {
		switch {
		case p.digest != m.digest:
			m.nondeterministic++
			log.Printf("WARNING: pass %d sim digest %s differs from the window's %s", n, p.digest, m.digest)
		case modal == nil:
			modal = p
		}
	}
	m.results, m.runner, m.cache = modal.results, modal.runner, modal.cache
	maps.Copy(m.extra, modal.extra)

	var passSeconds float64
	var passInsts uint64
	for _, o := range modal.ops {
		passSeconds += median(times[o.key])
		passInsts += o.insts
	}
	m.simMIPS = float64(concurrency) * float64(passInsts) / passSeconds / 1e6
	m.opsPerSec = float64(concurrency) * float64(len(modal.ops)) / passSeconds
	return m
}

// singleLive is the single-live workload: live simulations through
// blp.RunContext, nproc at a time.
type singleLive struct {
	cfg  config
	opts []blp.Options
}

func newSingleLive(cfg config) *singleLive {
	w := &singleLive{cfg: cfg}
	for _, b := range blp.Benchmarks {
		for _, mode := range []blp.SliceMode{blp.SliceNone, blp.BestMode(b)} {
			w.opts = append(w.opts, blp.Options{Benchmark: b, Mode: mode, Scale: scale(b, cfg.delta), Seed: cfg.seed})
		}
	}
	return w
}

func (w *singleLive) setup(tr *tracer) error          { _, err := inputsOf(tr, w.opts); return err }
func (w *singleLive) finish(*measurement)             {}
func (w *singleLive) programs() ([]layerInput, error) { return inputsOf(nil, w.opts) }
func (w *singleLive) close()                          {}

func (w *singleLive) measure(window time.Duration, tr *tracer) (*measurement, error) {
	return runPasses(window, w.cfg.jobs, tr, w.pass), nil
}

// pass runs every configuration once on cfg.jobs workers.
func (w *singleLive) pass(tr *tracer, parent int64) (*simPass, error) {
	p := &simPass{ops: make([]op, len(w.opts)), results: make([]*blp.Result, len(w.opts))}
	errs := make([]error, len(w.opts))
	next := make(chan int, len(w.opts))
	for i := range w.opts {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for lane := 0; lane < w.cfg.jobs; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				name := describe(w.opts[i])
				_, end := tr.begin("blp.RunContext "+name, parent, lane, 0)
				t0 := time.Now()
				p.results[i], errs[i] = blp.RunContext(context.Background(), w.opts[i])
				p.ops[i] = op{key: name, seconds: time.Since(t0).Seconds()}
				end()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, r := range p.results {
		p.ops[i].insts = r.Stats.Committed
	}
	var err error
	p.digest, err = digestResults(p.results)
	return p, err
}

// sweepKernels, sweepConfigs and sweepDelta define the timing-sweep
// workload: every config varies timing only, so one captured trace per
// kernel feeds all eight. One step below default scale keeps one kernel's
// sweep near a second on two CPUs.
const sweepDelta = -1

var (
	sweepKernels = []string{"cc", "bfs", "ms"}
	sweepConfigs = []func(*blp.Options){
		func(o *blp.Options) { o.Policy = "selective" },
		func(o *blp.Options) { o.Policy = "conventional" },
		func(o *blp.Options) { o.Policy = "partial:16" },
		func(o *blp.Options) { o.Policy = "throttle:2" },
		func(o *blp.Options) { o.FRQSize = 2 },
		func(o *blp.Options) { o.Reserve = 16 },
		func(o *blp.Options) { o.ROBBlockSize = 4 },
		func(o *blp.Options) { o.Predictor = "oracle" },
	}
)

// timingSweep is the timing-sweep workload: per pass, a fresh Runner runs
// one RunAll per kernel over its eight timing configs.
type timingSweep struct {
	cfg    config
	sweeps [][]blp.Options // per kernel
}

func newTimingSweep(cfg config) *timingSweep {
	w := &timingSweep{cfg: cfg}
	for _, b := range sweepKernels {
		var sweep []blp.Options
		for _, set := range sweepConfigs {
			o := blp.Options{Benchmark: b, Mode: blp.BestMode(b), Scale: scale(b, sweepDelta+cfg.delta), Seed: cfg.seed}
			set(&o)
			sweep = append(sweep, o)
		}
		w.sweeps = append(w.sweeps, sweep)
	}
	return w
}

func (w *timingSweep) setup(tr *tracer) error {
	_, err := inputsOf(tr, slices.Concat(w.sweeps...))
	return err
}
func (w *timingSweep) finish(*measurement) {}
func (w *timingSweep) programs() ([]layerInput, error) {
	return inputsOf(nil, slices.Concat(w.sweeps...))
}
func (w *timingSweep) close() {}

func (w *timingSweep) measure(window time.Duration, tr *tracer) (*measurement, error) {
	return runPasses(window, 1, tr, func(tr *tracer, parent int64) (*simPass, error) {
		r := blp.NewRunner(w.cfg.jobs)
		p := &simPass{}
		for i, sweep := range w.sweeps {
			_, end := tr.begin("Runner.RunAll "+sweepKernels[i], parent, 0, 0)
			t0 := time.Now()
			res, err := r.RunAll(sweep)
			o := op{key: sweepKernels[i], seconds: time.Since(t0).Seconds()}
			end()
			if err != nil {
				return nil, err
			}
			for _, x := range res {
				o.insts += x.Stats.Committed
			}
			p.ops = append(p.ops, o)
			p.results = append(p.results, res...)
		}
		st, cs := r.Stats(), r.CacheStats()
		if st.Simulated != len(p.results) {
			return nil, fmt.Errorf("the sweeps simulated %d of %d distinct configurations", st.Simulated, len(p.results))
		}
		var err error
		p.digest, err = digestResults(p.results)
		p.runner, p.cache = &st, &cs
		return p, err
	}), nil
}

// campaignDelta is the fig-campaign input-scale delta: two steps below
// default keep a pass near three seconds on two CPUs, so a window holds
// enough passes for a steady median.
const campaignDelta = -2

// figCampaign is the fig-campaign workload: Fig4, Fig5 and Fig7 on a fresh
// Runner per pass.
type figCampaign struct {
	cfg   config
	delta int
	// opts are the distinct runs the three figures request (their inputs
	// use the default seed). After each pass the benchmark asks the same
	// Runner for them: every one must be a cache hit, which checks that
	// this list and the figures agree, and yields the results the
	// instruction count and digest are taken from.
	opts []blp.Options
}

// fig7Reserves are Fig7's default reserve points.
var fig7Reserves = []int{1, 2, 4, 8, 16, 32}

func newFigCampaign(cfg config) *figCampaign {
	w := &figCampaign{cfg: cfg, delta: campaignDelta + cfg.delta}
	seen := map[string]bool{}
	add := func(o blp.Options) {
		if k := o.Key(); !seen[k] {
			seen[k] = true
			w.opts = append(w.opts, o)
		}
	}
	for _, b := range blp.Benchmarks {
		o := blp.Options{Benchmark: b, Scale: scale(b, w.delta)}
		add(o)
		if blp.InnerSliceable(b) {
			add(blp.Options{Benchmark: b, Scale: o.Scale, Mode: blp.SliceInner})
		}
		add(blp.Options{Benchmark: b, Scale: o.Scale, Mode: blp.SliceOuter})
		add(blp.Options{Benchmark: b, Scale: o.Scale, Predictor: "oracle"})
		for _, rv := range fig7Reserves {
			add(blp.Options{Benchmark: b, Scale: o.Scale, Mode: blp.BestMode(b), Reserve: rv})
		}
	}
	return w
}

func (w *figCampaign) setup(tr *tracer) error          { _, err := inputsOf(tr, w.opts); return err }
func (w *figCampaign) finish(*measurement)             {}
func (w *figCampaign) programs() ([]layerInput, error) { return inputsOf(nil, w.opts) }
func (w *figCampaign) close()                          {}

// paperFig4Hmean is the paper's Fig. 4 best-placement harmonic mean.
const paperFig4Hmean = 1.29

func (w *figCampaign) measure(window time.Duration, tr *tracer) (*measurement, error) {
	return runPasses(window, 1, tr, func(tr *tracer, parent int64) (*simPass, error) {
		r := blp.NewRunner(w.cfg.jobs)
		figs := []struct {
			name string
			run  func() (*blp.Figure, error)
		}{
			{"Runner.Fig4", func() (*blp.Figure, error) { return r.Fig4(w.delta) }},
			{"Runner.Fig5", func() (*blp.Figure, error) { return r.Fig5(w.delta) }},
			{"Runner.Fig7", func() (*blp.Figure, error) { return r.Fig7(w.delta, nil) }},
		}
		var tables []string
		var fig4 *blp.Figure
		t0 := time.Now()
		for _, f := range figs {
			_, end := tr.begin(f.name, parent, 0, 0)
			fig, err := f.run()
			end()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f.name, err)
			}
			if fig4 == nil {
				fig4 = fig
			}
			tables = append(tables, fig.String())
		}
		wall := time.Since(t0).Seconds()
		st, cs := r.Stats(), r.CacheStats()
		res, err := r.RunAll(w.opts)
		if err != nil {
			return nil, err
		}
		if after := r.Stats().Simulated; after != st.Simulated || st.Simulated != len(w.opts) {
			return nil, fmt.Errorf("the figures simulated %d runs, the benchmark expects its %d (%d more on re-ask)",
				st.Simulated, len(w.opts), after-st.Simulated)
		}
		o := op{key: "campaign", seconds: wall}
		for _, x := range res {
			o.insts += x.Stats.Committed
		}
		digest, err := digestResults(res, tables...)
		hm := fig4.Values["hmean"]
		return &simPass{ops: []op{o}, results: res, digest: digest, runner: &st, cache: &cs,
			extra: map[string]float64{
				"fig4_best_hmean":       hm,
				"fig4_err_vs_paper_pct": 100 * (hm/paperFig4Hmean - 1),
			}}, err
	}), nil
}
