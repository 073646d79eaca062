package sim

import (
	"strings"
	"testing"

	"repro/internal/flight"
)

// Mechanism-level behavior tests on the canonical sliced loop.

func TestBlockedROBCreatesGaps(t *testing.T) {
	res := runOddEven(t, true, func(c *Config) { c.Core.ROBBlockSize = 8 })
	if res.Total.GapsCreated == 0 {
		t.Fatal("blocked ROB produced no gaps despite selective flushes")
	}
	unblocked := runOddEven(t, true, nil)
	if unblocked.Total.GapsCreated != 0 {
		t.Fatal("unblocked ROB accounted gaps")
	}
	// Block partitioning only changes capacity accounting; execution
	// stays in the same ballpark (second-order interactions — like the
	// paper's Fig. 7 prefetcher dip — allow small swings either way).
	ratio := float64(res.Cycles) / float64(unblocked.Cycles)
	if ratio < 0.85 || ratio > 1.5 {
		t.Fatalf("blocked ROB cycles implausible: %d vs %d", res.Cycles, unblocked.Cycles)
	}
	if res.Total.Committed != unblocked.Total.Committed {
		t.Fatal("blocks changed committed instructions")
	}
}

func TestBlockSizeMonotoneOverhead(t *testing.T) {
	prev := int64(0)
	for _, bsz := range []int{1, 8, 16} {
		res := runOddEven(t, true, func(c *Config) { c.Core.ROBBlockSize = bsz })
		if prev != 0 && float64(res.Cycles) < 0.95*float64(prev) {
			t.Fatalf("block size %d much faster than smaller blocks (%d < %d)",
				bsz, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func TestFRQOverflowFallsBackConventional(t *testing.T) {
	small := runOddEven(t, true, func(c *Config) { c.Core.FRQSize = 1 })
	big := runOddEven(t, true, func(c *Config) { c.Core.FRQSize = 16 })
	if small.Total.ConvRecoveries <= big.Total.ConvRecoveries {
		t.Fatalf("FRQ=1 should force more conventional recoveries: %d vs %d",
			small.Total.ConvRecoveries, big.Total.ConvRecoveries)
	}
	if small.Total.FRQPeak > 1 || big.Total.FRQPeak < 2 {
		t.Fatalf("FRQ peaks: %d (cap 1), %d (cap 16)", small.Total.FRQPeak, big.Total.FRQPeak)
	}
}

func TestSelectiveFlushOffNeverRecoversSelectively(t *testing.T) {
	res := runOddEven(t, false, nil)
	if res.Total.SliceRecoveries != 0 || res.Total.DispOverhead != 0 {
		t.Fatalf("baseline engaged slice machinery: %+v", res.Total)
	}
}

func TestSliceMarkersCostDispatchOnly(t *testing.T) {
	// A sliced binary on a selective-flush core dispatches overhead
	// markers; they never commit.
	res := runOddEven(t, true, nil)
	if res.Total.DispOverhead == 0 {
		t.Fatal("no overhead counted for slice markers")
	}
	base := runOddEven(t, false, nil)
	if res.Total.Committed != base.Total.Committed {
		t.Fatal("markers leaked into committed count")
	}
}

func TestReserveSweepRuns(t *testing.T) {
	// The Fig. 7 sweep endpoints behave: tiny and huge reservations both
	// complete and commit identical work.
	r1 := runOddEven(t, true, func(c *Config) { c.Core.Reserve = 1 })
	r32 := runOddEven(t, true, func(c *Config) { c.Core.Reserve = 32 })
	if r1.Total.Committed != r32.Total.Committed {
		t.Fatal("reserve setting changed committed instructions")
	}
}

func TestSMT4(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Core.SMT = 4
	cfg.Core.Recovery = recovery(true)
	var progs []*Workload
	w := buildOddEven(400, true, 5)
	for i := 0; i < 4; i++ {
		progs = append(progs, buildOddEven(400, true, uint64(5+i)))
	}
	w.Progs = nil
	for i := 0; i < 4; i++ {
		w.Progs = append(w.Progs, progs[i].Progs[0])
	}
	w.Check = nil // threads share one image; per-thread outputs clash
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Committed == 0 {
		t.Fatal("SMT4 committed nothing")
	}
}

func TestPredictorVariants(t *testing.T) {
	// All predictors complete and oracle dominates static.
	var cycles = map[string]int64{}
	for _, p := range []string{"tage", "gshare", "bimodal", "static", "oracle"} {
		res := runOddEven(t, false, func(c *Config) { c.Core.Predictor = p })
		cycles[p] = res.Cycles
	}
	for p, c := range cycles {
		if p != "oracle" && cycles["oracle"] > c {
			t.Fatalf("oracle (%d) slower than %s (%d)", cycles["oracle"], p, c)
		}
	}
}

func TestWorkloadThreadMismatch(t *testing.T) {
	w := buildOddEven(100, false, 1)
	cfg := DefaultConfig()
	cfg.Cores = 2
	if _, err := Run(cfg, w); err == nil {
		t.Fatal("program/thread mismatch accepted")
	}
}

func TestPaperScaleMemoryRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem = Table1MemConfig(1)
	w := buildOddEven(500, false, 9)
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

// The flight recorder is the core's one event path: a recorder set on
// core.Config alone receives the run's events, its ring holds at most
// MaxEvents, and each event renders as one line naming core and thread.
func TestTraceEmitsEvents(t *testing.T) {
	rec := &flight.Recorder{TraceUops: true, MaxEvents: 50}
	res := runOddEven(t, true, func(c *Config) { c.Core.Recorder = rec })
	if res.Total.Committed == 0 {
		t.Fatal("no commits")
	}
	evs := rec.Events()
	if len(evs) != 50 || rec.TotalEvents() < res.Total.Committed {
		t.Fatalf("retained %d of %d events, want 50 of at least one per commit (%d)",
			len(evs), rec.TotalEvents(), res.Total.Committed)
	}
	for _, e := range evs {
		if line := e.String(); !strings.Contains(line, " core 0 thread 0 ") || strings.Contains(line, "\n") {
			t.Fatalf("event line %q does not name core 0 thread 0 on one line", line)
		}
	}
}
