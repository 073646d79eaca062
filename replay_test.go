package blp

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestTraceReplayEquivalence is the API-level pin of the replay
// contract: a run fed from a captured trace returns a Result
// byte-identical to a live run, for both the baseline and the
// selective-flush binary.
func TestTraceReplayEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []SliceMode{SliceNone, SliceOuter} {
		o := Options{Benchmark: "cc", Scale: 6, Mode: mode}

		live, err := RunContext(ctx, o)
		if err != nil {
			t.Fatalf("live run (%v): %v", mode, err)
		}
		tr, err := captureTrace(ctx, o.normalized())
		if err != nil {
			t.Fatalf("capture (%v): %v", mode, err)
		}
		rep, err := runContext(ctx, o, tr)
		if err != nil {
			t.Fatalf("replayed run (%v): %v", mode, err)
		}
		if !reflect.DeepEqual(rep, live) {
			t.Errorf("replayed result diverges from live run (%v):\nlive   %+v\nreplay %+v",
				mode, live, rep)
		}
	}
}

// TestRunnerTraceSweep drives a multi-configuration timing sweep over
// one workload through the Runner and checks the trace-once/
// simulate-many accounting: one capture, every simulation replayed, so
// the functional emulator ran once instead of once per configuration.
func TestRunnerTraceSweep(t *testing.T) {
	base := Options{Benchmark: "cc", Scale: 6, Mode: SliceOuter}
	sweep := []Options{
		base,
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, Predictor: "oracle"},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, FRQSize: 2},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, ROBBlockSize: 4},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, Reserve: 16},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, WrongPathMemAccess: true},
	}
	for _, o := range sweep {
		if o.TraceKey() != base.TraceKey() {
			t.Fatalf("timing knob leaked into TraceKey: %q vs %q", o.TraceKey(), base.TraceKey())
		}
		if o != base && o.Key() == base.Key() {
			t.Fatalf("distinct timing configs share a Key: %q", o.Key())
		}
	}

	r := NewRunner(2)
	res, err := r.RunAll(sweep)
	if err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.Simulated != len(sweep) || st.Captured != 1 || st.Replayed != len(sweep) {
		t.Fatalf("sweep accounting: %+v; want Simulated=%d Captured=1 Replayed=%d",
			st, len(sweep), len(sweep))
	}
	// The headline claim: the emulator executed Simulated-Replayed+
	// Captured times — at least 2x fewer than the number of simulations.
	emuExecs := st.Simulated - st.Replayed + st.Captured
	if emuExecs*2 > st.Simulated {
		t.Fatalf("emulator ran %d times for %d simulations; want >= 2x reduction",
			emuExecs, st.Simulated)
	}

	// One trace cache miss captured the trace; every other configuration
	// found it resident or joined the in-flight capture.
	cs := r.CacheStats()
	if cs.Trace.Misses != 1 || cs.Trace.Hits+cs.Trace.Joined != int64(len(sweep)-1) {
		t.Fatalf("trace cache: %+v; want 1 miss, %d hits+joined", cs.Trace, len(sweep)-1)
	}
	if cs.Trace.Entries != 1 || cs.Trace.Bytes <= 0 {
		t.Fatalf("trace cache resident set: %+v", cs.Trace)
	}

	// Each sweep point must equal its unmemoized, live-emulated run.
	for i := range sweep {
		live, err := Run(sweep[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], live) {
			t.Errorf("sweep[%d] result diverges from live run", i)
		}
	}
}

// TestRunnerCapturePolicy pins the reuse gating on the single-run path:
// a workload simulated once stays on the live emulator (capturing costs
// a separate functional pass and cache residency that a one-shot run
// never earns back), the second distinct timing configuration of the
// same workload captures and replays, and the third replays from the
// resident trace.
func TestRunnerCapturePolicy(t *testing.T) {
	r := NewRunner(2)
	seq := []Options{
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, Predictor: "oracle"},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, FRQSize: 2},
	}
	want := []RunnerStats{
		{Simulated: 1, Captured: 0, Replayed: 0},
		{Simulated: 2, Captured: 1, Replayed: 1},
		{Simulated: 3, Captured: 1, Replayed: 2},
	}
	for i, o := range seq {
		if _, err := r.Run(o); err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		st.Cached, st.InFlight = 0, 0
		if st != want[i] {
			t.Fatalf("after run %d: %+v, want %+v", i, st, want[i])
		}
	}
}

// TestRunnerReplayIneligible pins the gating: SMT and independence-
// checking runs bypass the trace path entirely and still work.
func TestRunnerReplayIneligible(t *testing.T) {
	r := NewRunner(2)
	opts := []Options{
		{Benchmark: "cc", Scale: 6, SMT: 2},
		{Benchmark: "cc", Scale: 6, CheckIndependence: true},
	}
	if _, err := r.RunAll(opts); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Captured != 0 || st.Replayed != 0 {
		t.Fatalf("ineligible runs used the trace path: %+v", st)
	}
	if tc := r.CacheStats().Trace; tc.Misses != 0 {
		t.Fatalf("ineligible runs touched the trace cache: %+v", tc)
	}
}

// TestTraceKeyVersioned pins the invalidation lever: the trace cache key
// embeds the capture/replay format version.
func TestTraceKeyVersioned(t *testing.T) {
	k := Options{Benchmark: "bfs"}.TraceKey()
	if !strings.HasPrefix(k, "trace/v") {
		t.Fatalf("TraceKey %q lacks the version stamp", k)
	}
}

// TestBatchedSweepMatchesSerialReplay pins byte-identity at the API
// layer: every point of a concurrent Runner sweep must equal a serial
// replayed run of the same options against an independently captured
// trace, so sharing one resident trace between concurrent replays
// changes nothing.
func TestBatchedSweepMatchesSerialReplay(t *testing.T) {
	ctx := context.Background()
	sweep := []Options{
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, Predictor: "oracle"},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, FRQSize: 2},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, ROBBlockSize: 4},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, Reserve: 16},
		{Benchmark: "cc", Scale: 6, Mode: SliceOuter, WrongPathMemAccess: true},
	}
	r := NewRunner(3)
	res, err := r.RunAll(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Captured != 1 || st.Replayed != len(sweep) {
		t.Fatalf("sweep accounting: %+v; want Captured=1 Replayed=%d", st, len(sweep))
	}

	tr, err := captureTrace(ctx, sweep[0].normalized())
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range sweep {
		want, err := runContext(ctx, o, tr)
		if err != nil {
			t.Fatalf("serial replay of sweep[%d]: %v", i, err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("sweep[%d] diverges from serial replay:\nserial %+v\nsweep  %+v",
				i, want.Stats, res[i].Stats)
		}
	}
}
