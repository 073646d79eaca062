package blp

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// Two spellings of the same run — zero-value defaults vs every default
// written out — must share one canonical key, and that key's text is
// pinned: the memo cache and every durable store are keyed by it, so a
// normalization change that moved it would leave them all cold.
func TestOptionsKeyCanonicalization(t *testing.T) {
	implicit := Options{Benchmark: "cc", Scale: 6}
	explicit := Options{Benchmark: "cc", Scale: 6, Degree: 16, Seed: 1,
		Cores: 1, SMT: 1, Predictor: "tage", Reserve: 8, ROBBlockSize: 1,
		FRQSize: 8, PRIters: 3}
	if implicit.Key() != explicit.Key() {
		t.Fatalf("keys differ:\n%s\n%s", implicit.Key(), explicit.Key())
	}
	const want = "{Benchmark:cc Mode:none Scale:6 Degree:16 Seed:1 Cores:1 SMT:1 " +
		"Predictor:tage Policy:conventional Reserve:8 ROBBlockSize:1 FRQSize:8 " +
		"PaperScaleMem:false WrongPathMemAccess:false CheckIndependence:false " +
		"PRIters:3 WatchdogCycles:1000000}"
	if got := implicit.Key(); got != want {
		t.Fatalf("key format moved:\n got %s\nwant %s", got, want)
	}
}

// Concurrent requests for one canonical key must simulate exactly once
// (singleflight) and hand every caller the same result.
func TestRunnerDedupSameKey(t *testing.T) {
	r := NewRunner(4)
	implicit := Options{Benchmark: "cc", Scale: 6}
	explicit := Options{Benchmark: "cc", Scale: 6, Degree: 16, Seed: 1,
		Cores: 1, SMT: 1, Predictor: "tage", Reserve: 8, ROBBlockSize: 1,
		FRQSize: 8, PRIters: 3}

	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := implicit
			if i%2 == 1 {
				o = explicit
			}
			res, err := r.Run(o)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	s := r.Stats()
	if s.Simulated != 1 {
		t.Fatalf("simulated %d runs for one canonical key, want 1", s.Simulated)
	}
	if s.Cached != callers-1 {
		t.Fatalf("cached %d requests, want %d", s.Cached, callers-1)
	}
	if s.InFlight != 0 {
		t.Fatalf("%d runs still in flight after completion", s.InFlight)
	}
	for i, res := range results {
		if res != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
}

func TestRunnerPropagatesError(t *testing.T) {
	r := NewRunner(2)
	if _, err := r.Run(Options{Benchmark: "nope"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := r.RunAll([]Options{
		{Benchmark: "cc", Scale: 6},
		{Benchmark: "bfs", Mode: SliceInner}, // §6.1 forbids
	}); err == nil {
		t.Fatal("RunAll swallowed an error")
	}
}

// A panicking simulation must not poison the Runner: the panic used to
// escape Run before the semaphore slot was returned and c.done was closed,
// so every duplicate requester of that key blocked forever and — with the
// slot leaked — so did unrelated runs once the worker budget drained.
// Both requesters must now receive the panic converted to an error, and
// the Runner must stay usable afterwards.
func TestRunnerPanicDoesNotDeadlock(t *testing.T) {
	r := NewRunner(1)
	r.runFn = func(context.Context, Options) (*Result, error) { panic("injected failure") }
	o := Options{Benchmark: "cc", Scale: 6}
	errs := make(chan error, 2)
	go func() { _, err := r.Run(o); errs <- err }()
	go func() { _, err := r.Run(o); errs <- err }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("want a panic-converted error, got %v", err)
			}
			if !strings.Contains(err.Error(), "injected failure") {
				t.Fatalf("panic value lost from error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("requester deadlocked after simulation panic")
		}
	}

	// The single worker slot must have been released: a fresh key on the
	// same Runner still executes.
	r.runFn = func(context.Context, Options) (*Result, error) { return &Result{Cycles: 1}, nil }
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := r.Run(Options{Benchmark: "bfs", Scale: 6}); err != nil {
			t.Errorf("follow-up run failed: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker slot leaked by the panicking run")
	}
	if s := r.Stats(); s.InFlight != 0 {
		t.Fatalf("%d runs still counted in flight", s.InFlight)
	}
}

// TestDescribeRunDistinguishesRuns pins the run identity that progress
// and panic lines print: the benchmark's timing sweep (eight timing
// configs of one workload), a second input seed, and the two memory
// switches must all describe differently, while the mode's own auto
// policy spelled out adds nothing.
func TestDescribeRunDistinguishesRuns(t *testing.T) {
	base := Options{Benchmark: "cc", Mode: BestMode("cc"), Scale: 11}
	sets := []func(*Options){
		func(o *Options) { o.Policy = "conventional" },
		func(o *Options) { o.Policy = "partial:16" },
		func(o *Options) { o.Policy = "throttle:2" },
		func(o *Options) { o.FRQSize = 2 },
		func(o *Options) { o.Reserve = 16 },
		func(o *Options) { o.ROBBlockSize = 4 },
		func(o *Options) { o.Predictor = "oracle" },
		func(o *Options) { o.Seed = 2 },
		func(o *Options) { o.WrongPathMemAccess = true },
		func(o *Options) { o.PaperScaleMem = true },
	}
	auto := base
	auto.Policy = "selective"
	if d := describeRun(auto); d != describeRun(base) {
		t.Errorf("the auto policy spelled out describes as %q, want %q", d, describeRun(base))
	}
	seen := map[string]int{describeRun(base): -1}
	for i, set := range sets {
		o := base
		set(&o)
		d := describeRun(o)
		if j, dup := seen[d]; dup {
			t.Errorf("configs %d and %d both describe as %q", j, i, d)
		}
		seen[d] = i
	}
}

func TestSpeedupUnmeasurableIsNaN(t *testing.T) {
	base := &Result{Cycles: 100}
	if s := Speedup(base, &Result{}); !math.IsNaN(s) {
		t.Fatalf("speedup vs zero-cycle run = %f, want NaN", s)
	}
	if s := Speedup(base, &Result{Cycles: 50}); s != 2 {
		t.Fatalf("speedup = %f, want 2", s)
	}
}

// A parallel Runner must regenerate byte-identical figure output to a
// serial (jobs=1) one: the fan-out only changes execution order, never
// the table assembly order or the simulated results.
func TestParallelFigureMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	serial, err := NewRunner(1).Fig6(-6)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(4).Fig6(-6)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("parallel output diverged from serial:\n--- serial\n%s--- parallel\n%s",
			serial, parallel)
	}
}

// Fig4 through a wide Runner at a tiny scale: the figure-level dedup and
// fan-out path the CI race job exercises. Not skipped in -short so that
// `go test -race -short` still covers concurrent simulation.
func TestFig4ParallelSmall(t *testing.T) {
	r := NewRunner(4)
	f, err := r.Fig4(-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Values) == 0 {
		t.Fatal("no values recorded")
	}
	for k, v := range f.Values {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("bad speedup %s=%f", k, v)
		}
	}
	s := r.Stats()
	// 7 benchmarks × (base, outer, perfect) + 3 inner-sliceable = 24
	// distinct runs, none duplicated within Fig4.
	if s.Simulated != 24 || s.Cached != 0 {
		t.Fatalf("simulated %d / cached %d, want 24 / 0", s.Simulated, s.Cached)
	}
	if !strings.Contains(f.Notes, "effective scales clamped") {
		t.Fatalf("clamped scales not reported in notes: %q", f.Notes)
	}
}

// Figures sharing one Runner reuse each other's runs: Fig5 and Fig6
// request exactly the same (base, best-sliced) pair per benchmark, so the
// second figure simulates nothing.
func TestRunnerSharedAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	r := NewRunner(4)
	if _, err := r.Fig5(-6); err != nil {
		t.Fatal(err)
	}
	after5 := r.Stats()
	if _, err := r.Fig6(-6); err != nil {
		t.Fatal(err)
	}
	after6 := r.Stats()
	if after6.Simulated != after5.Simulated {
		t.Fatalf("Fig6 simulated %d new runs after Fig5, want 0",
			after6.Simulated-after5.Simulated)
	}
	if after6.Cached <= after5.Cached {
		t.Fatal("Fig6 hit no cached runs")
	}
}

func TestScaleNote(t *testing.T) {
	if n := scaleNote(0); n != "" {
		t.Fatalf("unexpected clamp note at delta 0: %q", n)
	}
	n := scaleNote(-100)
	for _, b := range Benchmarks {
		if !strings.Contains(n, b+"=6") {
			t.Fatalf("clamp note missing %s: %q", b, n)
		}
	}
	// tc default 8: delta -2 reaches the floor exactly — no clamping.
	if n := scaleNote(-2); strings.Contains(n, "tc=") {
		t.Fatalf("tc not clamped at delta -2 but reported: %q", n)
	}
}

// TestRunAllContextFailsFast is the regression test for the fan-out
// cancellation bug: RunAllContext used to let every sibling run to
// completion after one had already failed, so a sweep poisoned by a bad
// configuration burned its full cost anyway. The failing run must
// cancel the expensive sibling promptly, and the reported error must be
// the real failure, not the collateral cancellation.
func TestRunAllContextFailsFast(t *testing.T) {
	r := NewRunner(2)
	boom := errors.New("poisoned configuration")
	r.runFn = func(ctx context.Context, o Options) (*Result, error) {
		if o.Seed == 2 {
			return nil, boom
		}
		// The "expensive" sibling: without fail-fast it runs for the
		// full 30 s and the test times out at the deadline below.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return &Result{Cycles: 1}, nil
		}
	}

	start := time.Now()
	_, err := r.RunAllContext(context.Background(), []Options{
		{Benchmark: "cc", Scale: 6, Seed: 1}, // expensive, must be canceled
		{Benchmark: "cc", Scale: 6, Seed: 2}, // fails immediately
	})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("fan-out took %v after a sibling failed; fail-fast is broken", elapsed)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("got error %v; want the poisoned run's error, not the induced cancellation", err)
	}
}

// TestRunAllContextParentCancel pins the other direction: when the
// caller's own context dies, the cancellation is genuine and is what
// gets reported.
func TestRunAllContextParentCancel(t *testing.T) {
	r := NewRunner(1)
	r.runFn = func(ctx context.Context, o Options) (*Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, err := r.RunAllContext(ctx, []Options{
		{Benchmark: "cc", Scale: 6, Seed: 1},
		{Benchmark: "cc", Scale: 6, Seed: 2},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v; want context.Canceled", err)
	}
}
