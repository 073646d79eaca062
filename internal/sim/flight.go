package sim

import (
	"math"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/flight"
)

// This file is the sim driver's side of the flight recorder: the interval
// timeline sampler (occupancy plus the rates only the driver can compute —
// IPC and per-level MPKI need committed/miss deltas across the whole
// chip) and the watchdog's deadlock report.

// timeline holds the previous-sample counters the interval rates are
// computed against.
type timeline struct {
	rec       *flight.Recorder
	lastCycle int64
	committed []uint64 // per core
	l1dMisses []uint64
	l2Misses  []uint64
	llcMisses uint64
	totalComm uint64
}

func newTimeline(rec *flight.Recorder, cores int) *timeline {
	return &timeline{
		rec:       rec,
		committed: make([]uint64, cores),
		l1dMisses: make([]uint64, cores),
		l2Misses:  make([]uint64, cores),
	}
}

// sample appends one timeline row per core: the core's occupancy snapshot
// plus interval IPC and misses-per-kilo-instruction at each cache level.
// The LLC is shared, so its MPKI is chip-wide (per kilo instructions
// committed by all cores) and repeated on every core's row.
func (tl *timeline) sample(now int64, cores []*core.Core, hiers []*cache.Hierarchy, llc *cache.Cache) {
	interval := now - tl.lastCycle
	if interval <= 0 {
		return
	}
	var total uint64
	for _, c := range cores {
		total += c.Stats().Committed
	}
	llcM := llc.Stats().Misses
	llcMPKI := mpki(llcM-tl.llcMisses, total-tl.totalComm)
	for i, c := range cores {
		var s flight.Sample
		c.Sample(&s)
		s.Cycle = now
		cDelta := s.Committed - tl.committed[i]
		s.IPC = float64(cDelta) / float64(interval)
		l1dM := hiers[i].L1D.Stats().Misses
		l2M := hiers[i].L2.Stats().Misses
		s.L1DMPKI = mpki(l1dM-tl.l1dMisses[i], cDelta)
		s.L2MPKI = mpki(l2M-tl.l2Misses[i], cDelta)
		s.LLCMPKI = llcMPKI
		tl.committed[i] = s.Committed
		tl.l1dMisses[i] = l1dM
		tl.l2Misses[i] = l2M
		tl.rec.AddSample(s)
	}
	tl.llcMisses = llcM
	tl.totalComm = total
	tl.lastCycle = now
}

// mpki returns misses per kilo committed instructions for one interval.
// An interval that committed nothing has no meaningful rate — NaN (an
// empty timeline CSV cell) keeps a fully stalled interval with
// outstanding misses distinguishable from a healthy miss-free one.
func mpki(misses, committed uint64) float64 {
	if committed == 0 {
		return math.NaN()
	}
	return 1000 * float64(misses) / float64(committed)
}

// deadlockDump renders the no-commit watchdog's report: each stuck core's
// pipeline state (core.DumpState, which opens with the occupancy snapshot
// the timeline samples, reserved-entry context included), plus — when a
// recorder is attached to the run — the last events of every hardware
// thread, so a §4.7 forward-progress failure is diagnosable from the
// artifact without rerunning.
func deadlockDump(cores []*core.Core, rec *flight.Recorder) string {
	var b strings.Builder
	for _, c := range cores {
		if !c.Done() {
			b.WriteString(c.DumpState())
		}
	}
	if rec != nil {
		if tail := rec.TailByThread(8); tail != "" {
			b.WriteString("flight-recorder tail:\n")
			b.WriteString(tail)
		}
	}
	return b.String()
}
