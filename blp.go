// Package blp is the public API of this reproduction of "Enabling
// Branch-Mispredict Level Parallelism by Selectively Flushing
// Instructions" (Eyerman, Heirman, Van den Steen, Hur — MICRO 2021).
//
// It wraps the internal cycle-level out-of-order core simulator, the GAP
// graph kernels plus merge sort in the virtual ISA, and the experiment
// harness that regenerates every table and figure of the paper's
// evaluation. See README.md for a tour and EXPERIMENTS.md for the
// paper-vs-measured record.
//
// Quick start:
//
//	res, err := blp.Run(blp.Options{Benchmark: "bfs", Mode: blp.SliceOuter})
//	base, _ := blp.Run(blp.Options{Benchmark: "bfs"})
//	fmt.Printf("speedup: %.2f\n", blp.Speedup(base, res))
package blp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// FlightRecorder is the opt-in observability recorder of internal/flight:
// pass one to RunRecorded to collect an interval occupancy timeline
// (flight.Recorder.Samples) and pipeline events (flight.Recorder.Events)
// during a run. See flight's package doc for the single-writer contract;
// a Recorder must not be shared across concurrent runs.
type FlightRecorder = flight.Recorder

// SliceMode selects the slice-instruction placement (§6.1 of the paper).
type SliceMode = kernels.SliceMode

// Slice placements re-exported from the kernels package.
const (
	SliceNone  = kernels.SliceNone
	SliceOuter = kernels.SliceOuter
	SliceInner = kernels.SliceInner
)

// Benchmarks lists the evaluated workloads in the paper's order: the six
// GAP kernels and merge sort.
var Benchmarks = kernels.Names

// InnerSliceable reports whether a benchmark supports inner-loop slicing.
func InnerSliceable(benchmark string) bool { return kernels.InnerSliceable(benchmark) }

// Zero marks an integer Options field as explicitly zero. Fields whose
// zero value means "use the default" (Reserve, ROBBlockSize, FRQSize,
// PRIters) accept Zero to request an actual 0 — e.g. a zero-reserve
// baseline or a zero-depth-FRQ ablation — which a literal 0 cannot
// express. Structurally impossible zeros (Reserve under selective
// flush, ROBBlockSize) fail validation with a clear error instead of
// silently running the default.
const Zero = -1

// Options configures one simulation run. The zero value of most fields
// selects the paper's defaults (Table 1 core, scaled memory hierarchy,
// single core, TAGE). Integer fields documented with "Zero for an
// explicit 0" follow the Zero sentinel convention above.
type Options struct {
	// Benchmark is one of Benchmarks ("bc", "bfs", "cc", "pr", "sssp",
	// "tc", "ms").
	Benchmark string
	// Mode places slice instructions; SliceNone builds the baseline
	// binary. Under the default Policy, selective-flush hardware is
	// enabled iff Mode != SliceNone.
	Mode SliceMode

	// Scale overrides the input size (log2 vertices; log2 elements for
	// ms). 0 selects the per-benchmark default.
	Scale int
	// Degree is the RMAT average degree (default 16, as in GAP).
	Degree int
	// Seed selects the synthetic input instance.
	Seed uint64

	// Cores is the number of cores (default 1; Fig. 10 uses more).
	Cores int
	// SMT is hardware threads per core (1, 2, or 4; Fig. 11).
	SMT int

	// Predictor overrides the direction predictor ("tage" default;
	// "oracle" gives the perfect-prediction bars of Figs. 4 and 11).
	Predictor string
	// Policy selects the misprediction-recovery policy: "selective" (the
	// paper's mechanism), "conventional" (full flush), "partial:N" (flush
	// only the N ROB entries nearest the branch, staged drain for the
	// rest; "partial:inf" drains everything), or "throttle:C" (full flush
	// plus single-slot fetch while a branch with predictor confidence
	// below C is outstanding). Empty (or "auto") follows Mode: selective
	// when Mode places slices, conventional otherwise.
	Policy string
	// Reserve overrides the §4.7 resource reservation (0 = default 8;
	// Zero for an explicit 0, i.e. no entries reserved). An explicit 0
	// is accepted for baseline runs; combined with slicing the core
	// rejects it with a §4.7 forward-progress error, because a
	// reservation-free selective-flush machine architecturally
	// deadlocks (resolve paths starve behind a packed window).
	Reserve int
	// ROBBlockSize overrides the blocked linked-list ROB block size
	// (0 = default 1; Fig. 8 sweeps 1..16). Zero requests an explicit 0,
	// which the core rejects as structurally invalid — the sentinel is
	// accepted for uniformity and yields a clear validation error.
	ROBBlockSize int
	// FRQSize overrides the fetch redirect queue depth (0 = default 8;
	// Zero for an explicit 0: every in-slice miss then falls back to
	// conventional full-flush recovery).
	FRQSize int

	// PaperScaleMem uses the full Table 1 memory hierarchy instead of
	// the scaled-down default (needs correspondingly large inputs).
	PaperScaleMem bool
	// WrongPathMemAccess lets wrong-path loads touch the caches
	// (pollution and prefetching); see DESIGN.md's calibration notes.
	WrongPathMemAccess bool
	// CheckIndependence enables the §4.1 slice-contract checker.
	CheckIndependence bool
	// PRIters is the number of PageRank sweeps (0 = default 3; Zero for
	// an explicit 0, leaving every score at its 1/n initial value).
	PRIters int
	// WatchdogCycles is the no-commit deadlock watchdog threshold
	// (0 = sim.DefaultWatchdogCycles; must not be negative).
	WatchdogCycles int64
}

// normalized returns o with every defaulted field resolved to its
// effective value, so that two Options that mean the same simulation
// compare identically. The Zero sentinel is preserved (it already is
// unambiguous) and mapped to a literal 0 at the point of use.
func (o Options) normalized() Options {
	cc := core.DefaultConfig()
	if o.Scale == 0 {
		o.Scale = DefaultScale(o.Benchmark)
	}
	if o.Degree == 0 {
		o.Degree = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Cores == 0 {
		o.Cores = 1
	}
	if o.SMT == 0 {
		o.SMT = 1
	}
	if o.Predictor == "" {
		o.Predictor = cc.Predictor
	}
	if o.Reserve == 0 {
		o.Reserve = cc.Reserve
	}
	if o.ROBBlockSize == 0 {
		o.ROBBlockSize = cc.ROBBlockSize
	}
	if o.FRQSize == 0 {
		o.FRQSize = cc.FRQSize
	}
	if o.PRIters == 0 {
		o.PRIters = kernels.DefaultPRIters
	}
	if o.WatchdogCycles == 0 {
		o.WatchdogCycles = sim.DefaultWatchdogCycles
	}
	if o.Policy == "" || o.Policy == "auto" {
		o.Policy = autoPolicy(o.Mode)
	}
	if sp, err := core.ParsePolicy(o.Policy); err == nil {
		o.Policy = sp.String()
	}
	// An unparseable Policy passes through verbatim; Validate rejects it
	// with the parser's error before the workload is built.
	return o
}

// autoPolicy is the recovery policy an empty (or "auto") Policy selects:
// selective when mode places slices, conventional otherwise.
func autoPolicy(mode SliceMode) string {
	if mode != SliceNone {
		return core.PolicySelective
	}
	return core.PolicyConventional
}

// zv maps the Zero sentinel (and any negative value) to a literal 0.
func zv(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// Key returns the canonical identity of the simulation Run would perform
// for o, with all defaults resolved. Two Options with equal Keys produce
// identical Results; the Runner uses it as its memoization key.
func (o Options) Key() string {
	return fmt.Sprintf("%+v", o.normalized())
}

// Result is the outcome of one run.
type Result struct {
	// Cycles is the simulated execution time.
	Cycles int64
	// IPC is committed instructions per cycle.
	IPC float64
	// Stats carries the full core counters (aggregated over cores).
	Stats core.Stats
	// PerCore has one entry per simulated core.
	PerCore []core.Stats
	// LLCMissRate and DRAMBusy summarize the memory system.
	LLCMissRate float64
	DRAMBusy    float64
	// Energy is the event-energy proxy of the run (arbitrary units; see
	// sim.DefaultEnergyModel), supporting the paper's efficiency claim.
	Energy sim.Energy
	// EnergyUseful is the committed share of dispatched instructions —
	// the fraction of dynamic pipeline energy that was not wasted on
	// wrong paths or marker overhead (Fig. 6's efficiency story).
	EnergyUseful float64
}

// Speedup returns base.Cycles / other.Cycles. A comparison against a run
// that recorded no cycles is not a measurement at all, so it yields NaN —
// never 0, which a caller could mistake for a measured slowdown and which
// would silently poison stats.HarmonicMeanSpeedup (that mean propagates
// NaN explicitly).
func Speedup(base, other *Result) float64 {
	if other.Cycles == 0 {
		return math.NaN()
	}
	return float64(base.Cycles) / float64(other.Cycles)
}

// Run builds the requested workload and simulates it to completion,
// validating the final memory image against the host reference. Every
// call simulates afresh; use a Runner for memoized, concurrent execution.
func Run(o Options) (*Result, error) {
	return RunContext(context.Background(), o)
}

// RunContext is Run honoring ctx: cancellation is checked before the
// (potentially slow) workload build and periodically inside the sim
// driver's stepping loop, so a canceled caller gets its goroutine and
// CPU back mid-simulation instead of waiting for the run to finish. The
// returned error wraps ctx.Err().
func RunContext(ctx context.Context, o Options) (*Result, error) {
	return RunRecorded(ctx, o, nil)
}

// RunRecorded is RunContext with the flight recorder rec watching the run
// (nil watches nothing). Recording is observation only: the Result is the
// one RunContext returns for o. A Runner never takes a recorder, because
// a memoized request may simulate nothing; call RunRecorded whenever the
// recording must happen.
func RunRecorded(ctx context.Context, o Options, rec *FlightRecorder) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("blp: %s (%v) canceled before build: %w", o.Benchmark, o.Mode, err)
	}
	n := o.normalized()
	w, err := kernels.Build(buildSpec(n))
	if err != nil {
		return nil, err
	}

	cfg := simConfig(n)
	cfg.Ctx = ctx
	cfg.Core.Recorder = rec
	r, err := sim.Run(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("blp: %s (%v): %w", o.Benchmark, o.Mode, err)
	}
	return makeResult(r), nil
}

// buildSpec maps (normalized) options to the kernels build request.
func buildSpec(n Options) kernels.Spec {
	return kernels.Spec{
		Kernel:  n.Benchmark,
		Scale:   n.Scale,
		Degree:  n.Degree,
		Seed:    n.Seed,
		Mode:    n.Mode,
		PRIters: n.PRIters, // kernels shares the negative-sentinel convention
		Threads: n.Cores * n.SMT,
	}
}

// simConfig maps normalized options to the sim configuration.
func simConfig(n Options) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = n.Cores
	cfg.Core.SMT = n.SMT
	if sp, err := core.ParsePolicy(n.Policy); err == nil {
		cfg.Core.Recovery = sp
	}
	cfg.Core.WrongPathMemAccess = n.WrongPathMemAccess
	cfg.CheckIndependence = n.CheckIndependence
	cfg.Core.Predictor = n.Predictor
	cfg.Core.Reserve = zv(n.Reserve)
	cfg.Core.ROBBlockSize = zv(n.ROBBlockSize)
	cfg.Core.FRQSize = zv(n.FRQSize)
	cfg.Mem = memConfig(n)
	cfg.WatchdogCycles = n.WatchdogCycles
	return cfg
}

// memConfig returns the memory hierarchy for normalized options.
func memConfig(n Options) sim.MemConfig {
	if n.PaperScaleMem {
		return sim.Table1MemConfig(n.Cores)
	}
	return sim.ScaledMemConfig(n.Cores)
}

// Validate reports, before any work is done, options no simulation can
// run. Each rule lives with the package that owns it, checked on exactly
// the configurations the run would use: the workload's (an unknown
// benchmark, inner slicing where §6.1 forbids it, a negative Scale,
// Degree or thread count; kernels.Spec.Normalize), the policy's
// (core.ParsePolicy), the machine's (sim.Config.Validate: at least one
// core, a non-negative watchdog, a cache hierarchy the model can size
// exactly — so Cores must be a power of two, as the LLC grows with it —
// and core.Config.Validate's SMT, predictor, reserve and ROB rules), and
// this package's own: a field that takes the Zero sentinel is not below
// Zero.
func (o Options) Validate() error {
	if err := o.normalized().validate(); err != nil {
		return fmt.Errorf("blp: %s (%v): %w", o.Benchmark, o.Mode, err)
	}
	return nil
}

// validate checks normalized options; see Validate.
func (n Options) validate() error {
	if _, err := buildSpec(n).Normalize(); err != nil {
		return err
	}
	if _, err := core.ParsePolicy(n.Policy); err != nil {
		return err
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{{"Reserve", n.Reserve}, {"ROBBlockSize", n.ROBBlockSize}, {"FRQSize", n.FRQSize}, {"PRIters", n.PRIters}} {
		if f.v < Zero {
			return fmt.Errorf("%s %d is below Zero (%d, an explicit 0)", f.name, f.v, Zero)
		}
	}
	return simConfig(n).Validate()
}

// makeResult converts a sim result into the public Result, deriving the
// energy proxy.
func makeResult(r *sim.Result) *Result {
	e := sim.EstimateEnergy(sim.DefaultEnergyModel(), r)
	dispatched := r.Total.DispCorrect + r.Total.DispWrong + r.Total.DispOverhead
	return &Result{
		Cycles:       r.Cycles,
		IPC:          r.Total.IPC(),
		Stats:        r.Total,
		PerCore:      r.PerCore,
		LLCMissRate:  r.LLCMissRate,
		DRAMBusy:     r.DRAMBusy,
		Energy:       e,
		EnergyUseful: e.UsefulFraction(r.Total.Committed, dispatched),
	}
}

// DefaultScale returns the default input scale for a benchmark.
func DefaultScale(benchmark string) int { return kernels.DefaultScale(benchmark) }
