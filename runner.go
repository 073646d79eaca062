package blp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/memsize"
	"repro/internal/store"
	"repro/internal/trace"
)

// Runner executes simulations concurrently with memoization. Requests are
// deduplicated — in flight and completed — by the canonical Options key
// (Options.Key), so sweeps that revisit a configuration (every figure
// re-measures the per-benchmark baseline, for instance) simulate it
// exactly once; concurrency is bounded by a worker budget. blp.Run stays
// unmemoized for callers that need a fresh simulation per call.
//
// Completed results are retained in a sharded LRU bounded by a byte
// budget (DefaultCacheBudget unless NewRunnerCache chose otherwise), so
// an arbitrarily long sweep no longer grows memory without limit: cold
// configurations are evicted least-recently-used first and re-simulate
// if requested again. Errors are never retained — a failed or canceled
// run is retried by the next request for its key.
//
// Results returned for duplicate requests alias the same *Result; treat
// them as read-only.
type Runner struct {
	jobs  int
	sem   chan struct{}
	cache *memo.Cache[*Result]
	// traces memoizes captured instruction traces by Options.TraceKey —
	// the workload-identity sub-key of Options.Key, with every timing
	// knob excluded — so a sweep varying only timing configuration runs
	// the functional emulator once per workload and replays the captured
	// stream for every configuration.
	traces *memo.Cache[*trace.Trace]
	// store, when non-nil (NewRunnerStore), is the durable second level
	// behind both caches: consulted on memo miss before simulating,
	// written through on compute, spilled to on LRU eviction.
	store *store.Store

	mu        sync.Mutex
	progress  io.Writer
	simulated int // simulations actually executed
	cached    int // requests served by an in-flight or completed duplicate
	inFlight  int // simulations currently executing
	captured  int // functional emulator executions that captured a trace
	replayed  int // simulations fed from a captured trace

	// Capture policy state (see wantCapture): traceHint counts live
	// RunAllContext batches that contain two or more distinct
	// configurations of the TraceKey, traceSeen records TraceKeys met
	// exactly once on the single-run path.
	traceHint map[string]int
	traceSeen map[string]bool

	// runFn stands in for blp.RunContext in tests; nil means RunContext.
	runFn func(context.Context, Options) (*Result, error)
}

// DefaultCacheBudget is the result-cache byte budget of NewRunner:
// roughly 64k resident results — far beyond any figure sweep — while
// still bounding an unattended long-running service.
const DefaultCacheBudget int64 = 64 << 20

// DefaultTraceCacheBudget bounds the captured-trace cache. Traces are
// orders of magnitude larger than results (roughly 10 bytes per
// committed instruction), so they get their own budget rather than
// competing with results for the same bytes; at the default benchmark
// scales one trace runs a few dozen megabytes.
const DefaultTraceCacheBudget int64 = 256 << 20

// runnerShards spreads the result cache over this many LRU shards.
const runnerShards = 16

// traceShards spreads the trace cache; few, because entries are few and
// large (a per-workload, not per-config, population).
const traceShards = 4

// NewRunner returns a Runner executing at most jobs simulations at once
// (jobs <= 0 selects runtime.NumCPU()) with the default result-cache
// budget.
func NewRunner(jobs int) *Runner { return NewRunnerCache(jobs, DefaultCacheBudget) }

// NewRunnerCache is NewRunner with an explicit result-cache byte budget;
// cacheBytes <= 0 makes the cache unbounded (the pre-PR-5 behaviour).
// The trace cache keeps its default budget either way.
func NewRunnerCache(jobs int, cacheBytes int64) *Runner {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	return &Runner{
		jobs:      jobs,
		sem:       make(chan struct{}, jobs),
		cache:     memo.New[*Result](runnerShards, cacheBytes, resultCost),
		traces:    memo.New[*trace.Trace](traceShards, DefaultTraceCacheBudget, traceCost),
		traceHint: make(map[string]int),
		traceSeen: make(map[string]bool),
	}
}

// resultCost estimates the resident bytes a memoized result pins: the
// key string plus everything reachable from the Result — per-core stats
// and any heap payload nested inside them. The previous shallow
// estimate (struct size plus the PerCore slice header math) undercounted
// as soon as Stats grew reference fields, which let the "bounded" cache
// exceed its budget unnoticed; memsize walks the real footprint.
func resultCost(key string, r *Result) int64 {
	return int64(len(key)) + memsize.Of(r)
}

// traceCost is resultCost for captured traces, dominated by the record
// streams' backing arrays. Traces are immutable once captured, so the
// insert-time cost stays exact for as long as the entry is resident.
func traceCost(key string, t *trace.Trace) int64 {
	return int64(len(key)) + memsize.Of(t)
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

// RunnerStats counts a Runner's activity so far.
type RunnerStats struct {
	// Simulated is the number of simulations actually executed.
	Simulated int
	// Cached is the number of requests answered by a duplicate —
	// joined in flight or already completed.
	Cached int
	// InFlight is the number of simulations executing right now.
	InFlight int
	// Captured counts functional-emulator executions performed to
	// capture a trace; Replayed counts simulations fed from a captured
	// trace instead of the live emulator. The emulator therefore ran
	// Simulated - Replayed + Captured times; a timing sweep over one
	// workload drives Replayed toward Simulated with Captured stuck at 1.
	Captured int
	Replayed int
	// Batched and the Seg* counters are always zero. They counted batched
	// replay and the wrong-path segment cache, both removed (DESIGN.md,
	// "Batched replay and wrong-path memoization (removed)"); they stay
	// only because the benchmark harness still reads them, and go when it
	// stops.
	Batched        int
	SegHits        int64
	SegMisses      int64
	SegInvalidated int64
	SegBypassed    int64
}

// Stats returns the Runner's current counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunnerStats{
		Simulated: r.simulated, Cached: r.cached, InFlight: r.inFlight,
		Captured: r.captured, Replayed: r.replayed,
	}
}

// CacheStats describes the Runner's result cache: request outcomes and
// the resident set against its byte budget.
type CacheStats struct {
	// Hits were answered by a completed resident result; Joined attached
	// to an identical in-flight simulation (singleflight) and shared its
	// successful result; Misses simulated. Only successful shares count
	// on either side, so Hits+Joined equals RunnerStats.Cached exactly —
	// a waiter canceled mid-join or a shared failure inflates neither.
	Hits, Joined, Misses int64
	// Evictions counts results dropped to keep the cache under budget.
	Evictions int64
	// Entries/Bytes are the resident set; Budget is the byte limit
	// (0 = unbounded).
	Entries int
	Bytes   int64
	Budget  int64

	// Trace describes the captured-trace cache, keyed by
	// Options.TraceKey: a Hit or Joined means a simulation reused a
	// workload's trace instead of re-running the functional emulator.
	Trace TraceCacheStats

	// Store describes the durable second level (nil without one): a Hit
	// is a memo miss answered from disk without simulating — the warm-
	// start path — and Invalidated counts stale-version or corrupt
	// objects dropped instead of served.
	Store *StoreStats
}

// StoreStats mirrors store.Stats for CacheStats (see CacheStats.Store).
type StoreStats struct {
	Hits, Misses, Writes, Invalidated, Evictions int64
	Entries                                      int
	Bytes                                        int64
	Budget                                       int64
}

// TraceCacheStats describes the Runner's trace cache (see
// CacheStats.Trace).
type TraceCacheStats struct {
	Hits, Joined, Misses int64
	Evictions            int64
	Entries              int
	Bytes                int64
	Budget               int64
}

// CacheStats returns a snapshot of the result and trace caches.
func (r *Runner) CacheStats() CacheStats {
	s := r.cache.Stats()
	t := r.traces.Stats()
	cs := CacheStats{
		Hits: s.Hits, Joined: s.Joined, Misses: s.Misses,
		Evictions: s.Evictions, Entries: s.Entries, Bytes: s.Bytes, Budget: s.Budget,
		Trace: TraceCacheStats{
			Hits: t.Hits, Joined: t.Joined, Misses: t.Misses,
			Evictions: t.Evictions, Entries: t.Entries, Bytes: t.Bytes, Budget: t.Budget,
		},
	}
	if r.store != nil {
		st := r.store.Stats()
		cs.Store = &StoreStats{
			Hits: st.Hits, Misses: st.Misses, Writes: st.Writes,
			Invalidated: st.Invalidated, Evictions: st.Evictions,
			Entries: st.Entries, Bytes: st.Bytes, Budget: st.Budget,
		}
	}
	return cs
}

// Run is a memoized, concurrency-bounded blp.Run: the first request for a
// canonical Options key simulates (waiting for a worker slot); duplicates
// block until that simulation finishes and share its result. Safe for
// concurrent use.
//
// Options.Flight is excluded from the memoization key: a request served
// by a duplicate performs no simulation, so its recorder stays empty (a
// notice is written to the progress writer, if set).
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
	res, err, shared = r.cache.Do(ctx, o.Key(), func() (*Result, error) {
		return r.execute(ctx, o)
	})
	if shared && err == nil {
		r.mu.Lock()
		r.cached++
		w := r.progress
		r.mu.Unlock()
		if w != nil && o.Flight != nil {
			fmt.Fprintf(w, "run %-32s served from cache; its flight recorder stays empty\n",
				describeRun(o))
		}
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

	res, err = r.simulate(ctx, o)
	if err == nil {
		r.storeSaveResult(o.Key(), res)
		r.ledgerResult(o, res, time.Since(start))
	}
	return res, err
}

// simulate performs the actual computation behind execute: the runFn
// test seam, or the real simulator fed live or from a captured trace.
func (r *Runner) simulate(ctx context.Context, o Options) (*Result, error) {
	if run := r.runFn; run != nil {
		return run(ctx, o)
	}

	// Trace-once/simulate-many: for replay-eligible configurations,
	// fetch (or capture, once per workload identity) the committed
	// instruction trace and feed the timing model from it. Ineligible
	// configurations — multithreaded, or with the independence checker
	// on — run the live emulator as before, and so does a workload with
	// no reuse in prospect (see wantCapture): the separate capture pass
	// plus trace residency only pays for itself when at least a second
	// timing configuration replays the stream. A trace already persisted
	// in the durable store overrides that bet — it is paid for, so a
	// restarted process replays it even for a one-shot request. Results
	// are byte-identical either way.
	n := o.normalized()
	if !replayEligible(n) {
		return runContext(ctx, o, nil)
	}
	tk := n.TraceKey()
	if _, ok := r.traces.Get(tk); !ok && !r.storeHasTrace(tk) && !r.wantCapture(tk) {
		return runContext(ctx, o, nil)
	}
	tr, err := r.fetchTrace(ctx, n)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.replayed++
	r.mu.Unlock()
	return runContext(ctx, o, tr)
}

// fetchTrace returns the workload's captured trace — from the memo cache,
// the durable store, or a fresh capture (singleflighted per TraceKey).
func (r *Runner) fetchTrace(ctx context.Context, n Options) (*trace.Trace, error) {
	tk := n.TraceKey()
	tr, err, _ := r.traces.Do(ctx, tk, func() (*trace.Trace, error) {
		if t, ok := r.storeLoadTrace(tk); ok {
			return t, nil
		}
		capStart := time.Now()
		t, err := captureTrace(ctx, n)
		if err == nil {
			r.mu.Lock()
			r.captured++
			r.mu.Unlock()
			r.storeSaveTrace(tk, t)
			r.ledgerTrace(tk, t, time.Since(capStart))
		}
		return t, err
	})
	return tr, err
}

// traceSeenCap bounds the first-sighting set; past it the history is
// simply forgotten (the policy is a heuristic — the worst case is one
// extra live run before a workload starts capturing again).
const traceSeenCap = 4096

// wantCapture decides whether a replay-eligible run whose trace is not
// resident should capture one, or stay on the live emulator. Capturing
// is a bet: it costs a separate functional pass plus trace residency,
// and pays only when further timing configurations of the same workload
// replay the stream. So capture when a live RunAllContext batch has
// promised reuse (traceHint), or on the second sighting of a TraceKey
// on the single-run path — a caller sweeping configurations one
// RunContext at a time pays one live run, then converges to replays.
// One-shot workloads (every point of a figure axis that varies the
// input) never capture and never displace hot traces from the cache.
func (r *Runner) wantCapture(tk string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traceHint[tk] > 0 || r.traceSeen[tk] {
		return true
	}
	if len(r.traceSeen) >= traceSeenCap {
		r.traceSeen = make(map[string]bool)
	}
	r.traceSeen[tk] = true
	return false
}

// hintTraces registers the reuse a batch makes certain: every TraceKey
// shared by two or more distinct configurations in opts is marked for
// capture while the batch runs. Duplicate Options (same canonical Key)
// coalesce onto one simulation in the result cache, so they are counted
// once. The returned keys must be released with unhintTraces.
func (r *Runner) hintTraces(opts []Options) []string {
	byKey := make(map[string]bool)
	count := make(map[string]int)
	for _, o := range opts {
		n := o.normalized()
		if !replayEligible(n) {
			continue
		}
		if k := o.Key(); byKey[k] {
			continue
		} else {
			byKey[k] = true
		}
		count[n.TraceKey()]++
	}
	var keys []string
	r.mu.Lock()
	for tk, c := range count {
		if c >= 2 {
			r.traceHint[tk]++
			keys = append(keys, tk)
		}
	}
	r.mu.Unlock()
	return keys
}

// HintTraces registers the trace reuse a caller-managed batch makes
// certain, exactly as RunAllContext does for its own fan-outs: every
// workload shared by two or more distinct replay-eligible
// configurations in opts is marked for capture until the returned
// release function is called. Callers that fan out RunContext requests
// themselves (the serve layer's sweep endpoint, for instance) use this
// to get the same trace-once/simulate-many behaviour as a RunAll batch.
// release is idempotent-free: call it exactly once, after the batch.
func (r *Runner) HintTraces(opts []Options) (release func()) {
	keys := r.hintTraces(opts)
	return func() { r.unhintTraces(keys) }
}

func (r *Runner) unhintTraces(keys []string) {
	r.mu.Lock()
	for _, tk := range keys {
		if r.traceHint[tk]--; r.traceHint[tk] <= 0 {
			delete(r.traceHint, tk)
		}
	}
	r.mu.Unlock()
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
	hinted := r.hintTraces(opts)
	defer r.unhintTraces(hinted)
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
// progress line: benchmark, placement, scale, and any non-default knobs.
func describeRun(o Options) string {
	n := o.normalized()
	s := fmt.Sprintf("%s/%s s%d", n.Benchmark, n.Mode, n.Scale)
	d := core.DefaultConfig()
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
		s += fmt.Sprintf(" r%d", zv(n.Reserve))
	}
	if n.ROBBlockSize != d.ROBBlockSize {
		s += fmt.Sprintf(" b%d", zv(n.ROBBlockSize))
	}
	if n.FRQSize != d.FRQSize {
		s += fmt.Sprintf(" frq%d", zv(n.FRQSize))
	}
	return s
}
