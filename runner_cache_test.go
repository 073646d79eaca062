package blp

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// A long sweep of distinct configurations must not grow the Runner's
// memory monotonically: the result cache is byte-budgeted and evicts
// LRU-first. Before PR 5 the memoization map retained every result
// forever. Uses the runFn seam so 500 "simulations" with deliberately
// fat per-core stats cost no sim time.
func TestRunnerCacheBounded(t *testing.T) {
	const budget = 256 << 10
	r := NewRunnerCache(2, budget)
	r.runFn = func(_ context.Context, o Options) (*Result, error) {
		// ~3.5 KB per result (PerCore dominates via resultCost).
		return &Result{Cycles: 1, PerCore: make([]core.Stats, 8)}, nil
	}

	first := Options{Benchmark: "cc", Scale: 6, Seed: 1}
	for seed := uint64(1); seed <= 500; seed++ {
		if _, err := r.Run(Options{Benchmark: "cc", Scale: 6, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		if cs := r.CacheStats(); cs.Bytes > budget {
			t.Fatalf("resident cache %d bytes exceeds budget %d after seed %d",
				cs.Bytes, budget, seed)
		}
	}
	cs := r.CacheStats()
	if cs.Evictions == 0 {
		t.Fatal("500 distinct results under a 256 KiB budget caused no evictions")
	}
	if cs.Entries >= 500 {
		t.Fatalf("all %d results retained: cache is unbounded", cs.Entries)
	}
	if cs.Budget != budget {
		t.Fatalf("reported budget %d, want %d", cs.Budget, budget)
	}

	// The earliest key was evicted, so re-requesting it re-simulates —
	// the flip side of boundedness.
	before := r.Stats().Simulated
	if _, err := r.Run(first); err != nil {
		t.Fatal(err)
	}
	if after := r.Stats().Simulated; after != before+1 {
		t.Fatalf("evicted key did not re-simulate (simulated %d -> %d)", before, after)
	}
}

// An unbounded cache (budget <= 0) keeps the pre-PR-5 retain-everything
// behaviour for callers that want it.
func TestRunnerCacheUnbounded(t *testing.T) {
	r := NewRunnerCache(2, 0)
	r.runFn = func(_ context.Context, o Options) (*Result, error) {
		return &Result{Cycles: 1, PerCore: make([]core.Stats, 8)}, nil
	}
	for seed := uint64(1); seed <= 200; seed++ {
		if _, err := r.Run(Options{Benchmark: "cc", Scale: 6, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	cs := r.CacheStats()
	if cs.Entries != 200 || cs.Evictions != 0 {
		t.Fatalf("unbounded cache evicted: %+v", cs)
	}
}

// Runner.RunContext must honor cancellation mid-simulation: before PR 5 a
// canceled caller still burned a worker slot until the sim finished. The
// deliberately slow config (merge sort at scale 15 runs for several
// seconds; tens of seconds under -race) must return within a couple of
// seconds of the cancel, with an error identifying the context, and the
// canceled result must not be cached.
func TestRunContextCancelMidSimulation(t *testing.T) {
	slow := Options{Benchmark: "ms", Scale: 15}
	r := NewRunner(1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.RunContext(ctx, slow)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Generous bound: cancellation latency is ~1k driver iterations, so
	// even race-instrumented runs return well under this; an un-honored
	// cancel runs the full multi-second simulation and trips it.
	if elapsed > 3*time.Second {
		t.Fatalf("cancel took %v — simulation ran to completion", elapsed)
	}
	if cs := r.CacheStats(); cs.Entries != 0 {
		t.Fatalf("canceled run was cached: %+v", cs)
	}

	// A canceled context short-circuits before simulating anything.
	before := r.Stats().Simulated
	if _, err := r.RunContext(ctx, Options{Benchmark: "cc", Scale: 6}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx err = %v", err)
	}
	if r.Stats().Simulated != before {
		t.Fatal("pre-canceled request still simulated")
	}
}

// A duplicate request that joins an in-flight simulation detaches on its
// own cancellation while the leader's run completes and is cached.
func TestRunContextWaiterDetaches(t *testing.T) {
	r := NewRunner(1)
	release := make(chan struct{})
	started := make(chan struct{})
	r.runFn = func(_ context.Context, o Options) (*Result, error) {
		close(started)
		<-release
		return &Result{Cycles: 42}, nil
	}
	o := Options{Benchmark: "cc", Scale: 6}
	leader := make(chan error, 1)
	go func() {
		_, err := r.Run(o)
		leader <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := r.RunContext(ctx, o)
		waiter <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled waiter stayed attached to the in-flight run")
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	res, err := r.Run(o)
	if err != nil || res.Cycles != 42 {
		t.Fatalf("leader result not cached: %v, %v", res, err)
	}
	if s := r.Stats(); s.Simulated != 1 {
		t.Fatalf("simulated %d, want 1 (waiter must not re-run)", s.Simulated)
	}
}

// TestRunnerCacheHonestCost is the regression test for the resultCost
// undercount: the old estimate charged a result for its struct size
// plus len(PerCore) stats, ignoring heap payload the result actually
// pins — most simply the full backing array of an over-allocated
// PerCore slice. Each result below pins ~115 KB of backing array while
// presenting one visible element (~450 bytes to the old formula), so
// under the old accounting a 2 MiB budget would happily retain all 300
// results (~34 MiB resident). The honest cost keeps both the cache's
// own ledger and the process heap within a small multiple of the
// budget, measured by runtime.MemStats deltas across the churn.
// (Entries stay under the budget — an oversized entry is deliberately
// cached alone even over budget; see memo.New.)
func TestRunnerCacheHonestCost(t *testing.T) {
	const budget = 2 << 20
	const pinned = 256 // cap of each PerCore backing array, ~115 KB

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	r := NewRunnerCache(2, budget)
	r.runFn = func(_ context.Context, o Options) (*Result, error) {
		return &Result{Cycles: 1, PerCore: make([]core.Stats, 1, pinned)}, nil
	}
	for seed := uint64(1); seed <= 300; seed++ {
		if _, err := r.Run(Options{Benchmark: "cc", Scale: 6, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		if cs := r.CacheStats(); cs.Bytes > budget {
			t.Fatalf("resident cache %d bytes exceeds budget %d after seed %d",
				cs.Bytes, budget, seed)
		}
	}
	if cs := r.CacheStats(); cs.Evictions == 0 {
		t.Fatal("fat results under a 2 MiB budget caused no evictions")
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// Everything but the bounded resident set is garbage by now. Allow
	// generous slack for allocator and test-framework noise; the failure
	// mode being guarded against is ~60x over budget.
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 8*budget {
		t.Fatalf("heap grew %d bytes across churn; want <= %d (8x the %d budget)",
			growth, 8*budget, budget)
	}
}

// TestResultCostFlatTypes guards resultCost's exactness. The formula
// charges the Result and PerCore's whole backing array and nothing
// else, so it undercounts the moment Result, core.Stats or sim.Energy
// gains another field that can reference the heap. This walks the types
// (nested structs and arrays included) and names any such field.
func TestResultCostFlatTypes(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if path == "Result" && f.Name == "PerCore" {
					walk("Result.PerCore[i]", f.Type.Elem())
					continue
				}
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %s: resultCost no longer charges every byte a cached result pins", path, typ.Kind())
		}
	}
	walk("Result", reflect.TypeOf(Result{}))
	if got := reflect.TypeOf(Result{}.PerCore).Elem(); got != reflect.TypeOf(core.Stats{}) {
		t.Errorf("Result.PerCore holds %v; resultCost charges core.Stats", got)
	}
}
