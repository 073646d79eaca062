package blp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestWarmStartEquivalence is the headline durable-store guarantee: a
// fresh process pointed at an existing store directory serves previously
// computed results without running a single simulation, and the served
// Result is identical — field for field and byte for byte in its
// persisted encoding — to the one the first process computed.
func TestWarmStartEquivalence(t *testing.T) {
	dir := t.TempDir()
	opts := []Options{
		{Benchmark: "cc", Scale: 6},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter},
	}

	// First life: compute and persist.
	st1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunnerStore(2, 0, st1)
	first, err := r1.RunAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.Stats().Simulated; got != len(opts) {
		t.Fatalf("cold start Simulated = %d, want %d", got, len(opts))
	}
	ss := st1.Stats()
	if ss.Writes == 0 {
		t.Fatalf("cold start wrote nothing to the store: %+v", ss)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same directory, fresh Store and Runner — the in-memory
	// caches start empty, so every answer must come from disk.
	st2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2 := NewRunnerStore(2, 0, st2)
	second, err := r2.RunAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Stats().Simulated; got != 0 {
		t.Errorf("warm start Simulated = %d, want 0 (all results should come from the store)", got)
	}
	if hits := st2.Stats().Hits; hits < int64(len(opts)) {
		t.Errorf("warm start store hits = %d, want >= %d", hits, len(opts))
	}
	for i := range opts {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("run %d: warm-start result differs from cold-start:\ncold %+v\nwarm %+v",
				i, first[i], second[i])
		}
		ce, err1 := encodeResult(first[i])
		we, err2 := encodeResult(second[i])
		if err1 != nil || err2 != nil {
			t.Fatalf("encoding results: %v, %v", err1, err2)
		}
		if string(ce) != string(we) {
			t.Errorf("run %d: persisted encodings differ between cold and warm start", i)
		}
	}
}

// TestWarmStartVersionMismatch proves the behavior-version stamp fences
// off stale results: a store written under one version answers nothing
// when reopened under another, and the stale objects are invalidated
// rather than served.
func TestWarmStartVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	o := Options{Benchmark: "cc", Scale: 6}

	st1, err := store.Open(dir, "old-behavior", 0)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunnerStore(1, 0, st1)
	if _, err := r1.Run(o); err != nil {
		t.Fatal(err)
	}
	if st1.Stats().Writes == 0 {
		t.Fatal("nothing persisted under the old version")
	}
	st1.Close()

	st2, err := OpenStore(dir, 0) // current BehaviorVersion != "old-behavior"
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2 := NewRunnerStore(1, 0, st2)
	if _, err := r2.Run(o); err != nil {
		t.Fatal(err)
	}
	if got := r2.Stats().Simulated; got != 1 {
		t.Errorf("Simulated = %d, want 1 (stale store entry must not be served)", got)
	}
	if inv := st2.Stats().Invalidated; inv == 0 {
		t.Error("version-mismatched object was not invalidated")
	}
}

// TestLedgerRecordsFreshComputations checks the experiment ledger holds
// one line per actual computation — and none for cache or store hits.
func TestLedgerRecordsFreshComputations(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerStore(1, 0, st)
	o := Options{Benchmark: "bfs", Scale: 6}
	if _, err := r.Run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(o); err != nil { // memo hit: must not re-ledger
		t.Fatal(err)
	}
	st.Close()

	entries, err := store.ReadLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	var results int
	for _, e := range entries {
		if e.Kind != "result" {
			continue
		}
		results++
		if e.Benchmark != "bfs" {
			t.Errorf("ledger benchmark = %q, want bfs", e.Benchmark)
		}
		if !strings.HasPrefix(e.Key, "result/") {
			t.Errorf("ledger key %q lacks result/ prefix", e.Key)
		}
		if e.Version != BehaviorVersion() {
			t.Errorf("ledger version = %q, want %q", e.Version, BehaviorVersion())
		}
	}
	if results != 1 {
		t.Errorf("ledger has %d result entries, want exactly 1", results)
	}
}

// TestRunnerStoreNilDegrades pins that a nil store is NewRunnerCache
// exactly: no store consultation, no persistence machinery in the way.
func TestRunnerStoreNilDegrades(t *testing.T) {
	r := NewRunnerStore(1, 0, nil)
	if r.Store() != nil {
		t.Fatal("nil store should stay nil")
	}
	if _, err := r.Run(Options{Benchmark: "cc", Scale: 6}); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Simulated; got != 1 {
		t.Errorf("Simulated = %d, want 1", got)
	}
	if r.Store() != nil {
		t.Error("a run should not attach a store")
	}
}

// TestNonPowerOfTwoCoresRejected: the LLC is LLCPerCore × Cores, and the
// cache model rounds a set count down to a power of two, so any other
// core count would simulate a smaller LLC than configured. Run and the
// Runner reject such counts with the level and its set count. The Runner
// does so before its memo cache and the durable store, so a result an
// older build stored under the same key is never served. Powers of two
// still run.
func TestNonPowerOfTwoCoresRejected(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := NewRunnerStore(1, 0, st)
	for _, tc := range []struct {
		o    Options
		sets int
	}{
		{Options{Benchmark: "bfs", Scale: 6, Cores: 3}, 96},
		{Options{Benchmark: "bfs", Scale: 6, Cores: 28}, 896},
		{Options{Benchmark: "bfs", Scale: 6, Cores: 3, PaperScaleMem: true}, 6144},
	} {
		r.storeSaveResult(tc.o.Key(), &Result{Cycles: 1})
		want := fmt.Sprintf("cache llc: %d sets is not a power of two", tc.sets)
		if _, err := Run(tc.o); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run with %d cores: %v, want %q", tc.o.Cores, err, want)
		}
		if res, err := r.Run(tc.o); res != nil || err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Runner with %d cores: result %v, error %v, want %q", tc.o.Cores, res, err, want)
		}
	}
	if s := r.Stats(); s.Simulated != 0 || s.Cached != 0 {
		t.Errorf("rejected runs reached the Runner's caches: %+v", s)
	}
	if hits := st.Stats().Hits; hits != 0 {
		t.Errorf("rejected runs read the store: %d hits", hits)
	}
	for _, cores := range []int{2, 4, 16} {
		if _, err := Run(Options{Benchmark: "bfs", Scale: 6, Cores: cores}); err != nil {
			t.Errorf("%d cores: %v", cores, err)
		}
	}
}
