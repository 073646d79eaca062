// Package sim drives whole-system simulations: it assembles cores, cache
// hierarchies, and the shared uncore; interleaves cores cycle by cycle;
// coordinates OpenMP-style barriers across all hardware threads; and
// collects the statistics the paper's figures report.
package sim

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/uncore"
)

// MemConfig sizes the cache hierarchy. The default (ScaledMemConfig) is
// the paper's Table 1 hierarchy scaled down ~8× so that the scaled-down
// input graphs keep the paper's footprint-to-LLC ratio (misses in the LLC
// at the paper's 45-70% rate); Table1MemConfig is the full-size original.
type MemConfig struct {
	L1ISize, L1IWays, L1ILatency int
	L1DSize, L1DWays, L1DLatency int
	L2Size, L2Ways, L2Latency    int
	MSHRs                        int

	Uncore uncore.Config

	// Prefetchers: a stride prefetcher at L1D and a next-line
	// prefetcher at L2 (the paper's Fig. 7 discussion references the
	// data prefetcher).
	StridePrefetch   bool
	NextLinePrefetch bool
}

// Table1MemConfig is the full-size hierarchy of the paper's Table 1,
// shared resources scaled to the given core count as §5.2 prescribes.
func Table1MemConfig(cores int) MemConfig {
	return MemConfig{
		L1ISize: 32 << 10, L1IWays: 8, L1ILatency: 1,
		L1DSize: 32 << 10, L1DWays: 8, L1DLatency: 4,
		L2Size: 1 << 20, L2Ways: 16, L2Latency: 14,
		MSHRs: 10,
		Uncore: uncore.Config{
			Cores:            cores,
			LLCPerCore:       1408 << 10, // 1.375 MB
			LLCWays:          11,
			LLCLatency:       30,
			MeshHopLatency:   2,
			MemLatency:       150,                        // ≈50 ns at 3 GHz
			MemBytesPerCycle: 38.4 / 28 * float64(cores), // 115.2 GB/s at 3 GHz, per §5.2 scaling
			LLCMSHRs:         32 * cores,
		},
		StridePrefetch:   true,
		NextLinePrefetch: true,
	}
}

// ScaledMemConfig shrinks the hierarchy so that the scaled-down benchmark
// inputs exercise the paper's regime — per-vertex property arrays larger
// than the LLC (45-70% LLC miss rate on the indirect accesses), memory
// latency-bound rather than bandwidth-bound (DRAM bus under ~40% busy).
// See DESIGN.md's calibration notes.
func ScaledMemConfig(cores int) MemConfig {
	m := Table1MemConfig(cores)
	m.L1ISize = 8 << 10
	m.L1DSize = 4 << 10
	m.L2Size = 8 << 10
	m.L2Ways = 8
	m.Uncore.LLCPerCore = 16 << 10
	m.Uncore.LLCWays = 8
	m.Uncore.MemBytesPerCycle = 8 * float64(cores)
	return m
}

// hierConfig returns the per-core private levels' configurations.
func (m MemConfig) hierConfig() cache.HierConfig {
	return cache.HierConfig{
		L1I: cache.Config{Name: "l1i", SizeBytes: m.L1ISize, Ways: m.L1IWays,
			HitLatency: m.L1ILatency, MSHRs: m.MSHRs},
		L1D: cache.Config{Name: "l1d", SizeBytes: m.L1DSize, Ways: m.L1DWays,
			HitLatency: m.L1DLatency, MSHRs: m.MSHRs,
			StridePrefetch: m.StridePrefetch},
		L2: cache.Config{Name: "l2", SizeBytes: m.L2Size, Ways: m.L2Ways,
			HitLatency: m.L2Latency, MSHRs: 2 * m.MSHRs,
			NextLinePrefetch: m.NextLinePrefetch},
	}
}

// Validate reports a hierarchy the cache model cannot size exactly: a
// level whose set count is not a power of two (cache.Config.Validate).
// The LLC grows with Uncore.Cores, so with both shipped configurations
// the core count must be a power of two.
func (m MemConfig) Validate() error {
	hc := m.hierConfig()
	for _, c := range []cache.Config{hc.L1I, hc.L1D, hc.L2, m.Uncore.LLC()} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// DefaultWatchdogCycles is the no-commit watchdog threshold used when
// Config.WatchdogCycles is zero.
const DefaultWatchdogCycles = 1_000_000

// Config is a whole-system configuration.
type Config struct {
	Core  core.Config
	Mem   MemConfig
	Cores int
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// WatchdogCycles aborts a run (with a diagnostic dump) when no core
	// commits an instruction for this many consecutive cycles. 0 selects
	// DefaultWatchdogCycles; negative values fail validation.
	WatchdogCycles int64
	// CheckIndependence turns on the emulator's slice-discipline
	// checker (slower; for tests).
	CheckIndependence bool
	// Ctx, when non-nil, lets the caller cancel a run in progress: the
	// driver loop polls Ctx.Done() every ctxCheckIters iterations
	// (alongside its other per-iteration obligations — watchdog,
	// MaxCycles, timeline sampling) and returns an error wrapping
	// Ctx.Err(). Polling changes no simulated state, so results stay
	// byte-identical whether or not a context is attached.
	Ctx context.Context
}

// Validate reports a configuration Run cannot simulate: fewer than one
// core, a negative watchdog threshold, a memory hierarchy the cache model
// cannot size exactly (MemConfig.Validate), or a core configuration
// core.Config.Validate rejects.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: Cores must be at least 1, got %d", c.Cores)
	}
	if c.WatchdogCycles < 0 {
		return fmt.Errorf("sim: WatchdogCycles must not be negative, got %d", c.WatchdogCycles)
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("sim: memory hierarchy for %d cores: %w", c.Cores, err)
	}
	return c.Core.Validate()
}

// DefaultConfig is a single-core scaled configuration.
func DefaultConfig() Config {
	return Config{
		Core:           core.DefaultConfig(),
		Mem:            ScaledMemConfig(1),
		Cores:          1,
		MaxCycles:      2_000_000_000,
		WatchdogCycles: DefaultWatchdogCycles,
	}
}

// Workload is a runnable program set: one program per hardware thread
// (cores × SMT), sharing one memory image.
type Workload struct {
	Name string
	// Progs has exactly one program per hardware thread, in core-major
	// order (core 0's threads first); Run rejects any other count. The
	// kernels partition work by giving each thread its own program (see
	// internal/kernels).
	Progs []*isa.Program
	Mem   []byte
	// Check validates the final memory image against a host-computed
	// reference (optional).
	Check func(mem []byte) error
}

// Result carries per-core and aggregate statistics.
type Result struct {
	Cycles  int64
	Total   core.Stats
	PerCore []core.Stats
	// CacheStats snapshots selected hierarchy counters.
	L1DMissRate float64
	LLCMissRate float64
	L2MissRate  float64
	// DRAMLines counts memory line transfers; DRAMBusy is the fraction
	// of total cycles the memory bus was transferring.
	DRAMLines uint64
	DRAMBusy  float64
	// Access and miss counts per level, aggregated across every core's
	// private hierarchy (the LLC is shared).
	L1DAccesses uint64
	L1DMisses   uint64
	L2Accesses  uint64
	L2Misses    uint64
	LLCAccesses uint64
	LLCMisses   uint64
}

// ctxCheckIters is how many driver-loop iterations elapse between
// context-cancellation polls. Iterations (not cycles) are the unit of
// wall-clock work here — idle fast-forward can jump thousands of cycles
// in one iteration — so this bounds cancellation latency to ~a
// millisecond of simulation regardless of configuration. A nil receive
// channel never fires, so runs without a context pay one counter
// increment.
const ctxCheckIters = 1024

// Run simulates the workload to completion and returns statistics.
func Run(cfg Config, w *Workload) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	threadsTotal := cfg.Cores * cfg.Core.SMT
	if len(w.Progs) != threadsTotal {
		return nil, fmt.Errorf("sim: workload %s has %d programs for %d hardware threads",
			w.Name, len(w.Progs), threadsTotal)
	}
	watchdog := cfg.WatchdogCycles
	if watchdog == 0 {
		watchdog = DefaultWatchdogCycles
	}
	llc, dram := uncore.Build(cfg.Mem.Uncore)
	hc := cfg.Mem.hierConfig()

	// All machines share the workload's memory image.
	cores := make([]*core.Core, cfg.Cores)
	hiers := make([]*cache.Hierarchy, cfg.Cores)
	ti := 0
	for i := range cores {
		ms := make([]*emu.Machine, cfg.Core.SMT)
		for j := range ms {
			ms[j] = emu.New(w.Progs[ti], w.Mem)
			ms[j].CheckIndependence = cfg.CheckIndependence
			ti++
		}
		hiers[i] = cache.NewHierarchy(hc, llc, dram)
		c, err := core.NewCore(i, cfg.Core, hiers[i], ms)
		if err != nil {
			return nil, err
		}
		cores[i] = c
	}

	maxCycles := cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 2_000_000_000
	}

	rec := cfg.Core.Recorder
	var tl *timeline
	if rec != nil && rec.Interval > 0 {
		tl = newTimeline(rec, cfg.Cores)
	}

	var ctxDone <-chan struct{}
	if cfg.Ctx != nil {
		ctxDone = cfg.Ctx.Done()
	}
	var iters int64

	var now int64
	lastCommit, lastCommitCycle := uint64(0), int64(0)
	for {
		now++
		if iters++; iters%ctxCheckIters == 0 && ctxDone != nil {
			select {
			case <-ctxDone:
				return nil, fmt.Errorf("sim: workload %s canceled at cycle %d: %w",
					w.Name, now, cfg.Ctx.Err())
			default:
			}
		}
		if now > maxCycles {
			return nil, fmt.Errorf("sim: workload %s exceeded %d cycles", w.Name, maxCycles)
		}
		// Deadlock watchdog: no commit anywhere for a long time.
		var committed uint64
		for _, c := range cores {
			committed += c.Stats().Committed
		}
		if committed != lastCommit {
			lastCommit, lastCommitCycle = committed, now
		} else if now-lastCommitCycle > watchdog {
			return nil, fmt.Errorf("sim: workload %s deadlocked at cycle %d:\n%s",
				w.Name, now, deadlockDump(cores, rec))
		}
		if tl != nil && now%rec.Interval == 0 {
			tl.sample(now, cores, hiers, llc)
		}
		done := true
		for _, c := range cores {
			if !c.Done() {
				c.Cycle(now)
				done = false
			}
		}
		if done {
			break
		}
		releaseBarriers(cores)

		// Idle fast-forward: jump over cycle spans where no core can make
		// progress (all waiting on timed events such as memory fills).
		// The jump lands one cycle before the earliest wake source so the
		// boundary cycle executes normally, and is capped so that every
		// per-cycle obligation of this loop still happens on schedule: the
		// next timeline sample, the watchdog firing cycle, and the
		// MaxCycles abort. Barriers need no cap — releaseBarriers ran
		// above, so a post-release wake is already visible to NextWake.
		// Cores replicate the skipped cycles' statistics exactly
		// (core.SkipTo), keeping results byte-identical to per-cycle
		// stepping.
		if !cfg.Core.ForceCycleAccurate {
			wake := int64(1) << 62
			live := false
			for _, c := range cores {
				if c.Done() {
					continue
				}
				live = true
				if nw := c.NextWake(); nw < wake {
					wake = nw
				}
			}
			if !live {
				// Every core finished during this iteration; the next
				// loop pass will observe it and break. Jumping here
				// would inflate the final cycle count.
				continue
			}
			target := wake - 1
			if tl != nil {
				if next := now - now%rec.Interval + rec.Interval; next-1 < target {
					target = next - 1
				}
			}
			if deadline := lastCommitCycle + watchdog; deadline < target {
				target = deadline
			}
			if maxCycles < target {
				target = maxCycles
			}
			if target > now {
				// Cancellation check before committing the jump: a single
				// fast-forward can cover an arbitrarily long idle window
				// (a slow-memory stall runs to tens of millions of
				// cycles), and a run with few active cycles may finish
				// before the iteration counter ever reaches its polling
				// interval — so a canceled caller must not be carried
				// across the window by the counter-based poll alone.
				// Like that poll, this changes no simulated state.
				if ctxDone != nil && target-now >= ctxCheckIters {
					select {
					case <-ctxDone:
						return nil, fmt.Errorf("sim: workload %s canceled at cycle %d: %w",
							w.Name, now, cfg.Ctx.Err())
					default:
					}
				}
				for _, c := range cores {
					if !c.Done() {
						c.SkipTo(target)
					}
				}
				now = target
			}
		}
	}

	// Every core must have returned every microarchitectural resource:
	// leaks here mean a recovery path lost track of a uop even though the
	// run "finished". Cheap (runs once), so always on.
	for _, c := range cores {
		if err := c.CheckQuiescent(); err != nil {
			return nil, fmt.Errorf("sim: workload %s not quiescent: %w", w.Name, err)
		}
	}

	if w.Check != nil {
		if err := w.Check(w.Mem); err != nil {
			return nil, fmt.Errorf("sim: workload %s output check failed: %w", w.Name, err)
		}
	}

	res := &Result{Cycles: now}
	for _, c := range cores {
		s := *c.Stats()
		res.PerCore = append(res.PerCore, s)
		res.Total.Add(&s)
	}
	res.Total.Cycles = now
	collectCacheStats(res, hiers, llc, dram, now)
	return res, nil
}

// collectCacheStats fills Result's cache counters, aggregating accesses
// and misses across every core's private hierarchy (miss rates are
// computed on the aggregated counts, not core 0's).
func collectCacheStats(res *Result, hiers []*cache.Hierarchy, llc *cache.Cache, dram *cache.Memory, cycles int64) {
	for _, h := range hiers {
		l1d, l2 := h.L1D.Stats(), h.L2.Stats()
		res.L1DAccesses += l1d.Accesses
		res.L1DMisses += l1d.Misses
		res.L2Accesses += l2.Accesses
		res.L2Misses += l2.Misses
	}
	if res.L1DAccesses > 0 {
		res.L1DMissRate = float64(res.L1DMisses) / float64(res.L1DAccesses)
	}
	if res.L2Accesses > 0 {
		res.L2MissRate = float64(res.L2Misses) / float64(res.L2Accesses)
	}
	ls := llc.Stats()
	res.LLCAccesses = ls.Accesses
	res.LLCMisses = ls.Misses
	res.LLCMissRate = ls.MissRate()
	res.DRAMLines = dram.Accesses()
	res.DRAMBusy = float64(dram.Accesses()) * dram.CyclesPerLine / float64(cycles)
}

// releaseBarriers implements the global OpenMP barrier: when every
// unfinished hardware thread is waiting at its barrier, release them all.
func releaseBarriers(cores []*core.Core) {
	waiting := 0
	live := 0
	for _, c := range cores {
		for i := 0; i < c.Threads(); i++ {
			if c.ThreadDone(i) {
				continue
			}
			live++
			if c.BarrierWaiting(i) {
				waiting++
			}
		}
	}
	if live == 0 || waiting != live {
		return
	}
	for _, c := range cores {
		for i := 0; i < c.Threads(); i++ {
			if !c.ThreadDone(i) {
				c.ReleaseBarrier(i)
			}
		}
	}
}
