package blp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/store"
)

// Runner executes simulations concurrently with memoization. Requests are
// deduplicated — in flight and completed — by the canonical Options key
// (Options.Key), so sweeps that revisit a configuration (every figure
// re-measures the per-benchmark baseline, for instance) simulate it
// exactly once; concurrency is bounded by a worker budget. blp.Run stays
// unmemoized for callers that need a fresh simulation per call.
//
// Completed results are retained in one LRU bounded by a byte budget
// (DefaultCacheBudget unless NewRunnerCache chose otherwise) and charged
// their exact size (resultCost), so an arbitrarily long sweep does not
// grow memory without limit: cold configurations are evicted
// least-recently-used first and re-simulate if requested again. Errors
// are never retained — a failed or canceled run is retried by the next
// request for its key.
//
// Results returned for duplicate requests alias the same *Result; treat
// them as read-only.
type Runner struct {
	jobs  int
	sem   chan struct{}
	cache *memo.Cache[*Result]
	// store, when non-nil (NewRunnerStore), is the durable second level
	// behind the cache: consulted on memo miss before simulating,
	// written through on compute, spilled to on LRU eviction.
	store *store.Store

	mu        sync.Mutex
	progress  io.Writer
	simulated int // simulations actually executed
	cached    int // requests served by an in-flight or completed duplicate
	inFlight  int // simulations currently executing

	// runFn runs one simulation: RunContext, or a test's stand-in.
	runFn func(context.Context, Options) (*Result, error)
}

// DefaultCacheBudget is the result-cache byte budget of NewRunner:
// roughly 64k resident results — far beyond any figure sweep — while
// still bounding an unattended long-running service.
const DefaultCacheBudget int64 = 64 << 20

// NewRunner returns a Runner executing at most jobs simulations at once
// (jobs <= 0 selects runtime.NumCPU()) with the default result-cache
// budget.
func NewRunner(jobs int) *Runner { return NewRunnerCache(jobs, DefaultCacheBudget) }

// NewRunnerCache is NewRunner with an explicit result-cache byte budget;
// cacheBytes <= 0 makes the cache unbounded (the pre-PR-5 behaviour).
func NewRunnerCache(jobs int, cacheBytes int64) *Runner {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	return &Runner{
		jobs:  jobs,
		sem:   make(chan struct{}, jobs),
		cache: memo.New[*Result](cacheBytes, resultCost),
		runFn: RunContext,
	}
}

// resultCost is the exact resident size of a memoized result: the key
// string, the *Result pointer, the Result itself, and the whole backing
// array of PerCore — cap, not len, since that is what the result pins.
// It is exact only while PerCore is the one heap reference in Result,
// core.Stats and sim.Energy; TestResultCostFlatTypes fails when one of
// them gains another.
func resultCost(key string, r *Result) int64 {
	return int64(len(key)) + int64(unsafe.Sizeof(r)) + int64(unsafe.Sizeof(*r)) +
		int64(cap(r.PerCore))*int64(unsafe.Sizeof(core.Stats{}))
}

// Jobs returns the worker budget.
func (r *Runner) Jobs() int { return r.jobs }

// SetProgress directs a one-line-per-completed-run progress report
// (elapsed time plus simulated/cached/in-flight counts) to w; nil
// disables it. Call before submitting work.
func (r *Runner) SetProgress(w io.Writer) {
	r.mu.Lock()
	r.progress = w
	r.mu.Unlock()
}

// RunnerStats counts a Runner's activity so far. The JSON names are the
// sims section of the serve layer's /metrics.
type RunnerStats struct {
	// Simulated is the number of simulations actually executed.
	Simulated int `json:"simulated"`
	// Cached is the number of requests answered by a duplicate —
	// joined in flight or already completed.
	Cached int `json:"cached"`
	// InFlight is the number of simulations executing right now.
	InFlight int `json:"in_flight"`
	// Captured, Replayed, Batched and the Seg* counters are always zero
	// and never on the wire. They counted trace capture and replay,
	// batched replay and the wrong-path segment cache, all removed
	// (DESIGN.md); they stay only because the benchmark harness still
	// reads them, and go when it stops.
	Captured       int   `json:"-"`
	Replayed       int   `json:"-"`
	Batched        int   `json:"-"`
	SegHits        int64 `json:"-"`
	SegMisses      int64 `json:"-"`
	SegInvalidated int64 `json:"-"`
	SegBypassed    int64 `json:"-"`
}

// Stats returns the Runner's current counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunnerStats{Simulated: r.simulated, Cached: r.cached, InFlight: r.inFlight}
}

// CacheStats describes the Runner's result cache: Hits were answered by
// a completed resident result, Joined attached to an identical
// in-flight simulation, Misses simulated or were answered by the store.
// Only successful shares count, so Hits+Joined equals
// RunnerStats.Cached exactly. The durable store's counters are
// Runner.Store().Stats().
type CacheStats = memo.Stats

// CacheStats returns a snapshot of the result cache.
func (r *Runner) CacheStats() CacheStats { return r.cache.Stats() }

// Run is a memoized, concurrency-bounded blp.Run: the first request for a
// canonical Options key simulates (waiting for a worker slot); duplicates
// block until that simulation finishes and share its result. Safe for
// concurrent use.
func (r *Runner) Run(o Options) (*Result, error) {
	return r.RunContext(context.Background(), o)
}

// RunContext is Run honoring ctx: a canceled context aborts the wait for
// a worker slot, stops an in-progress simulation at its next cancellation
// check (mid-run, via the sim driver's watchdog loop), and detaches a
// duplicate request from the in-flight run it joined (which keeps running
// for its other waiters). The error satisfies errors.Is against
// ctx.Err(). A canceled run is never cached.
func (r *Runner) RunContext(ctx context.Context, o Options) (*Result, error) {
	res, _, err := r.RunCached(ctx, o)
	return res, err
}

// RunCached is RunContext reporting additionally whether the result was
// shared — answered by a resident cached result or by joining a
// duplicate in-flight simulation — rather than freshly simulated. A
// share that produced no result — the joined computation errored, or
// this waiter canceled out of the join — reports shared=true alongside
// the error but is not counted as cached (nothing was served), so
// CacheStats.Hits+Joined always equals RunnerStats.Cached.
func (r *Runner) RunCached(ctx context.Context, o Options) (res *Result, shared bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	// Invalid options never reach the memo cache or the durable store,
	// so no stored result can answer them.
	if err := o.Validate(); err != nil {
		return nil, false, err
	}
	res, err, shared = r.cache.Do(ctx, o.Key(), func() (*Result, error) {
		return r.execute(ctx, o)
	})
	if shared && err == nil {
		r.mu.Lock()
		r.cached++
		r.mu.Unlock()
	}
	return res, shared, err
}

// execute answers one memo-missed request: first from the durable store
// (the warm-start path — no worker slot, no simulation, nothing counted
// in Simulated), then by simulating under the worker-slot semaphore.
// The deferred recover converts a simulation panic into an error
// (returned to every singleflight waiter via the cache) and guarantees
// the slot and counters are restored, so a panicking run can neither
// strand duplicate requesters nor leak worker capacity.
func (r *Runner) execute(ctx context.Context, o Options) (res *Result, err error) {
	if res, ok := r.storeLoadResult(o.Key()); ok {
		return res, nil
	}
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	r.mu.Lock()
	r.inFlight++
	r.mu.Unlock()

	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("blp: simulation %s panicked: %v", describeRun(o), p)
		}
		elapsed := time.Since(start)
		r.mu.Lock()
		r.inFlight--
		r.simulated++
		w := r.progress
		r.mu.Unlock()
		<-r.sem
		if w != nil {
			st := r.Stats()
			fmt.Fprintf(w, "run %-32s %8s  [%d simulated, %d cached, %d in flight]\n",
				describeRun(o), elapsed.Round(time.Millisecond),
				st.Simulated, st.Cached, st.InFlight)
		}
	}()

	res, err = r.runFn(ctx, o)
	if err == nil {
		r.storeSaveResult(o.Key(), res)
		r.ledgerResult(o, res, time.Since(start))
	}
	return res, err
}

// RunAll executes every request concurrently (each bounded by the worker
// budget) and returns the results in input order — the deterministic
// fan-out primitive the figure harness is built on. If any run fails, the
// first error in input order is returned after all runs finish.
func (r *Runner) RunAll(opts []Options) ([]*Result, error) {
	return r.RunAllContext(context.Background(), opts)
}

// RunAllContext is RunAll honoring ctx (see RunContext), and fails
// fast: the first run to error cancels its siblings through a derived
// context, so a fan-out poisoned by one bad configuration does not keep
// burning worker slots on runs whose results will be discarded. The
// returned error is the first in input order that is not a cancellation
// induced by the failure itself.
func (r *Runner) RunAllContext(ctx context.Context, opts []Options) ([]*Result, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := make([]*Result, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i := range opts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = r.RunContext(cctx, opts[i])
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	var induced error
	for _, err := range errs {
		if err == nil {
			continue
		}
		// With the caller's own context live, a cancellation can only be
		// collateral from the cancel() above; report the causing error
		// instead. If the caller's context is done, cancellations are
		// genuine and the first one is as good as any.
		if ctx.Err() == nil && errors.Is(err, context.Canceled) {
			if induced == nil {
				induced = err
			}
			continue
		}
		return nil, err
	}
	if induced != nil {
		return nil, induced
	}
	return res, nil
}

// describeRun renders a compact human-readable run identity for the
// progress and panic lines: benchmark, placement, scale, and any knob
// that differs from its normalized default (for Policy, the mode's auto
// policy).
func describeRun(o Options) string {
	n := o.normalized()
	s := fmt.Sprintf("%s/%s s%d", n.Benchmark, n.Mode, n.Scale)
	d := core.DefaultConfig()
	if n.Policy != autoPolicy(n.Mode) {
		s += " " + n.Policy
	}
	if n.Seed != 1 {
		s += fmt.Sprintf(" seed%d", n.Seed)
	}
	if n.Predictor != d.Predictor {
		s += " " + n.Predictor
	}
	if n.Cores > 1 {
		s += fmt.Sprintf(" c%d", n.Cores)
	}
	if n.SMT > 1 {
		s += fmt.Sprintf(" smt%d", n.SMT)
	}
	if n.Reserve != d.Reserve {
		s += fmt.Sprintf(" r%d", n.Reserve)
	}
	if n.ROBBlockSize != d.ROBBlockSize {
		s += fmt.Sprintf(" b%d", n.ROBBlockSize)
	}
	if n.FRQSize != d.FRQSize {
		s += fmt.Sprintf(" frq%d", n.FRQSize)
	}
	if n.WrongPathMemAccess {
		s += " wpmem"
	}
	if n.PaperScaleMem {
		s += " papermem"
	}
	return s
}
