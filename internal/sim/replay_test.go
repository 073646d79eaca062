package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestReplayEquivalence runs the same workload twice — once live, once
// fed from a captured trace — under both flush modes and requires
// byte-identical results: the replay frontend must be indistinguishable
// from the emulator to the timing model.
func TestReplayEquivalence(t *testing.T) {
	for _, sliced := range []bool{false, true} {
		w := buildOddEven(2000, sliced, 42)

		capMem := append([]byte(nil), w.Mem...)
		tr, err := trace.Capture(context.Background(), w.Progs[0], capMem)
		if err != nil {
			t.Fatal(err)
		}
		// The capture pass itself must compute the right answer.
		if err := w.Check(capMem); err != nil {
			t.Fatalf("captured execution wrong (sliced=%v): %v", sliced, err)
		}

		cfg := DefaultConfig()
		cfg.Core.Recovery = recovery(sliced)
		cfg.CheckIndependence = false
		cfg.MaxCycles = 50_000_000

		live, err := Run(cfg, w)
		if err != nil {
			t.Fatalf("live run (sliced=%v): %v", sliced, err)
		}

		// Rebuild the workload: Run consumes the memory image in place.
		w2 := buildOddEven(2000, sliced, 42)
		cfg.Replay = tr
		rep, err := Run(cfg, w2)
		if err != nil {
			t.Fatalf("replayed run (sliced=%v): %v", sliced, err)
		}

		if !reflect.DeepEqual(rep, live) {
			t.Errorf("replayed result diverges from live run (sliced=%v):\nlive   %+v\nreplay %+v",
				sliced, live.Total, rep.Total)
		}
	}
}

// TestReplayRequiresSingleThread pins the gating: replay is defined only
// for one hardware thread and without the independence checker.
func TestReplayRequiresSingleThread(t *testing.T) {
	w := buildOddEven(50, false, 1)
	tr, err := trace.Capture(context.Background(), w.Progs[0], append([]byte(nil), w.Mem...))
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.CheckIndependence = false
	cfg.Cores = 2
	cfg.Replay = tr
	if _, err := Run(cfg, w); err == nil {
		t.Error("replay with 2 cores should be rejected")
	}

	cfg = DefaultConfig()
	cfg.CheckIndependence = true
	cfg.Replay = tr
	if _, err := Run(cfg, w); err == nil {
		t.Error("replay with CheckIndependence should be rejected")
	}
}

// TestCancelDuringIdleFastForward is the regression test for the
// cancellation-latency bug: with a long memory latency, nearly all
// simulated time is covered by idle fast-forward jumps, and a short run
// can finish in far fewer loop iterations than the counter-based
// cancellation poll's interval — so a canceled context was silently
// ignored. The fix polls before committing any jump at least as long as
// the poll interval.
func TestCancelDuringIdleFastForward(t *testing.T) {
	w := buildOddEven(6, false, 3)
	cfg := DefaultConfig()
	cfg.CheckIndependence = false
	// Every miss stalls for ~300k idle cycles — far more than the poll
	// interval, well under the watchdog — while the run takes only a few
	// dozen loop iterations end to end.
	cfg.Mem.Uncore.MemLatency = 300_000
	cfg.MaxCycles = 50_000_000

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	if _, err := Run(cfg, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run finished with err=%v; want context.Canceled", err)
	}

	// Sanity: the same configuration completes when not canceled.
	cfg.Ctx = context.Background()
	w2 := buildOddEven(6, false, 3)
	if _, err := Run(cfg, w2); err != nil {
		t.Fatalf("uncanceled control run failed: %v", err)
	}
}
