package sim

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/flight"
	"repro/internal/uncore"
)

// Miss rates must aggregate over every core's private hierarchy; they used
// to read hiers[0] only, silently reporting core 0's locality for the
// whole chip. Drive two hierarchies with opposite patterns (one all-hits
// after warmup, one all-misses) and check the aggregate sits between them.
func TestCollectCacheStatsAggregatesAllCores(t *testing.T) {
	llc, dram := uncore.Build(uncore.Config{
		Cores: 2, LLCPerCore: 16 << 10, LLCWays: 8, LLCLatency: 30,
		MemLatency: 150, MemBytesPerCycle: 16, LLCMSHRs: 64,
	})
	hc := cache.HierConfig{
		L1I: cache.Config{Name: "l1i", SizeBytes: 8 << 10, Ways: 8, HitLatency: 1, MSHRs: 10},
		L1D: cache.Config{Name: "l1d", SizeBytes: 4 << 10, Ways: 8, HitLatency: 4, MSHRs: 10},
		L2:  cache.Config{Name: "l2", SizeBytes: 8 << 10, Ways: 8, HitLatency: 14, MSHRs: 20},
	}
	hiers := []*cache.Hierarchy{
		cache.NewHierarchy(hc, llc, dram),
		cache.NewHierarchy(hc, llc, dram),
	}

	// Core 0: hammer one line — one cold miss, then hits.
	now := int64(1)
	for i := 0; i < 100; i++ {
		hiers[0].Data(64, 0, now, false)
		now += 200
	}
	// Core 1: stream far beyond every capacity — all misses.
	for i := 0; i < 100; i++ {
		hiers[1].Data(uint64(1<<20+i*4096), 0, now, false)
		now += 200
	}

	res := &Result{}
	collectCacheStats(res, hiers, llc, dram, now)

	if res.L1DAccesses != 200 {
		t.Fatalf("L1DAccesses = %d, want 200", res.L1DAccesses)
	}
	var wantMisses uint64
	for _, h := range hiers {
		wantMisses += h.L1D.Stats().Misses
	}
	if res.L1DMisses != wantMisses {
		t.Fatalf("L1DMisses = %d, want %d", res.L1DMisses, wantMisses)
	}
	core0 := hiers[0].L1D.Stats().MissRate()
	core1 := hiers[1].L1D.Stats().MissRate()
	if !(core0 < res.L1DMissRate && res.L1DMissRate < core1) {
		t.Fatalf("aggregate L1D miss rate %.3f not between core0 %.3f and core1 %.3f",
			res.L1DMissRate, core0, core1)
	}
	if res.L1DMissRate == core0 {
		t.Fatal("aggregate miss rate still equals core 0's (regression)")
	}
	if res.L2Misses == 0 || res.LLCMisses == 0 {
		t.Fatal("L2/LLC miss counters not collected")
	}
}

// A negative watchdog threshold must be rejected up front, and a small one
// must fire on the first long memory stall with the diagnostic dump.
func TestWatchdogConfig(t *testing.T) {
	w := buildOddEven(64, false, 1)
	cfg := DefaultConfig()
	cfg.WatchdogCycles = -1
	if _, err := Run(cfg, w); err == nil || !strings.Contains(err.Error(), "WatchdogCycles") {
		t.Fatalf("negative watchdog accepted: %v", err)
	}

	// A 10-cycle no-commit budget is shorter than one DRAM access, so the
	// watchdog fires early; the error must carry the occupancy dump and,
	// when events were recorded, the flight-recorder tail. (The watchdog
	// fires during the cold-start fetch stall, before the run's first
	// event, so seed one to exercise the tail path.)
	cfg = DefaultConfig()
	cfg.WatchdogCycles = 10
	rec := &flight.Recorder{}
	rec.Record(flight.Event{TS: 1, Name: flight.EvRecoverSel})
	cfg.Core.Recorder = rec
	_, err := Run(cfg, buildOddEven(64, false, 2))
	if err == nil || !strings.Contains(err.Error(), "deadlocked at cycle") {
		t.Fatalf("tiny watchdog did not fire: %v", err)
	}
	// The stuck core's occupancy is one line, not two formats of it.
	var snapshots int
	for _, line := range strings.Split(err.Error(), "\n") {
		if strings.HasPrefix(line, "core 0 @") {
			snapshots++
			if !strings.Contains(line, "reserve") || !strings.Contains(line, "events=") {
				t.Fatalf("occupancy line lacks the reserve or the event count: %s", line)
			}
		}
	}
	if snapshots != 1 {
		t.Fatalf("dump has %d occupancy lines for core 0, want 1:\n%v", snapshots, err)
	}
	if !strings.Contains(err.Error(), "flight-recorder tail:") {
		t.Fatalf("dump missing flight-recorder tail:\n%v", err)
	}
}

// The timeline sampler records one row per core per interval with
// monotonically growing committed counts, and attaching it (or the full
// recorder) must not change the simulated timing.
func TestTimelineSamplingAndNeutrality(t *testing.T) {
	base := runOddEven(t, true, nil)

	rec := &flight.Recorder{Interval: 100, TraceUops: true}
	res := runOddEven(t, true, func(cfg *Config) { cfg.Core.Recorder = rec })

	if res.Cycles != base.Cycles {
		t.Fatalf("recorder changed timing: %d vs %d cycles", res.Cycles, base.Cycles)
	}
	if res.Total != base.Total {
		t.Fatalf("recorder changed stats:\n%+v\n%+v", res.Total, base.Total)
	}

	samples := rec.Samples()
	if len(samples) == 0 {
		t.Fatal("no timeline samples recorded")
	}
	prev := uint64(0)
	for i, s := range samples {
		if s.Cycle%100 != 0 {
			t.Fatalf("sample %d at cycle %d, not on the interval", i, s.Cycle)
		}
		if s.Committed < prev {
			t.Fatalf("committed went backwards at sample %d", i)
		}
		prev = s.Committed
	}
	last := samples[len(samples)-1]
	if last.Committed == 0 {
		t.Fatal("final sample shows no committed instructions")
	}
	if rec.TotalEvents() == 0 {
		t.Fatal("no pipeline events recorded with TraceUops")
	}
}
