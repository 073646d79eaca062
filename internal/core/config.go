// Package core implements the cycle-level out-of-order core model with the
// selective-flush mechanism of the paper: slice-aware recovery, a linked-
// list ROB with optional block partitioning, a fetch redirect queue for
// concurrent in-slice misses, resource reservation for resolve paths, and
// commit-time reduction execution. SMT (2/4 threads) is supported.
package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/flight"
)

// Config holds the core's structural parameters. DefaultConfig reproduces
// the paper's Table 1 (Skylake-like Xeon Platinum 8180 core).
type Config struct {
	// Widths.
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int

	// Window structures (Table 1).
	ROBSize int
	RS      int // reservation stations
	LQ      int // load queue entries
	SQ      int // store queue entries

	// FrontendDepth is the fetch-to-dispatch latency in cycles; it is
	// the refill part of the branch misprediction penalty.
	FrontendDepth int

	// Predictor selects the direction predictor by its bpred name:
	// "tage" (Table 1), "gshare", "bimodal", "static", or "oracle"
	// (perfect prediction).
	Predictor string
	BTBSets   int
	BTBWays   int

	// Recovery selects the misprediction-recovery policy (see policy.go):
	// PolicySelective is the paper's mechanism, PolicyConventional (the
	// default) recovers every misprediction with a full flush, and
	// partial:N / throttle:C are full flushes with a staged victim
	// release or a confidence-gated fetch.
	Recovery PolicySpec
	// Reserve is the number of RS/LQ/SQ (and ROB) entries reserved for
	// resolve-path dispatch while in-slice instructions are in flight
	// (§4.7; Fig. 7 sweeps 1..32, default 8).
	Reserve int
	// ROBBlockSize partitions the linked-list ROB into blocks sharing
	// one pointer (§4.3; Fig. 8 sweeps 1..16). 1 = pure linked list.
	ROBBlockSize int
	// FRQSize bounds the fetch redirect queue (§4.6; default 8). When
	// the queue is full, new in-slice misses recover conventionally.
	FRQSize int

	// SMT is the number of hardware threads (1, 2, or 4; Fig. 11).
	SMT int

	// WrongPathMemAccess controls whether wrong-path loads access (and
	// therefore warm or pollute) the data caches. The shadow wrong-path
	// engine computes exact addresses from forked register state, which
	// makes wrong paths unrealistically good prefetchers of the
	// reconverged future; real speculative hardware loses the values of
	// in-flight producers. See DESIGN.md for the calibration discussion.
	WrongPathMemAccess bool

	// StoreFwdLat is the store-to-load forwarding latency.
	StoreFwdLat int
	// AtomicExtra is added to atomic read-modify-write execution.
	AtomicExtra int
	// BarrierLat is the release overhead of a synchronization barrier.
	BarrierLat int

	// FrontendQueue bounds the number of in-flight fetched-but-not-
	// dispatched instructions per thread.
	FrontendQueue int

	// ForceCycleAccurate disables the event-driven fast paths — wakeup-
	// driven issue selection and the sim driver's idle-cycle fast-forward
	// — and steps every cycle with the legacy full-RS scan. The two modes
	// produce byte-identical results (the equivalence test in
	// internal/sim enforces it); this knob exists for that test and for
	// debugging scheduling discrepancies.
	ForceCycleAccurate bool

	// Recorder, when non-nil, receives structured pipeline events
	// (selective-flush unlink/splice/recovery, and per-uop lifetimes if
	// its TraceUops is set) — the flight recorder of internal/flight and
	// the run's one recorder setting: sim.Run also adds its timeline
	// samples there and reads its tail for the deadlock dump. Nil (the
	// default) records nothing and adds no cost beyond one pointer check
	// per hook site.
	Recorder *flight.Recorder
}

// DefaultConfig returns the paper's Table 1 core configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth:         4,
		DispatchWidth:      4,
		IssueWidth:         8,
		CommitWidth:        4,
		ROBSize:            224,
		RS:                 97,
		LQ:                 72,
		SQ:                 56,
		FrontendDepth:      12,
		Predictor:          "tage",
		BTBSets:            512,
		BTBWays:            4,
		Recovery:           PolicySpec{Kind: PolicyConventional},
		Reserve:            8,
		ROBBlockSize:       1,
		FRQSize:            8,
		SMT:                1,
		WrongPathMemAccess: false,
		StoreFwdLat:        5,
		AtomicExtra:        5,
		BarrierLat:         20,
		FrontendQueue:      64,
	}
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if c.SMT != 1 && c.SMT != 2 && c.SMT != 4 {
		return fmt.Errorf("core: SMT must be 1, 2, or 4 (got %d)", c.SMT)
	}
	if c.ROBSize <= 0 || c.RS <= 0 || c.LQ <= 0 || c.SQ <= 0 {
		return fmt.Errorf("core: window structures must be positive")
	}
	if c.Reserve < 0 || c.Reserve >= c.RS || c.Reserve >= c.LQ || c.Reserve >= c.SQ {
		return fmt.Errorf("core: Reserve %d out of range", c.Reserve)
	}
	if err := c.Recovery.Validate(); err != nil {
		return err
	}
	if c.Recovery.Kind == PolicySelective && c.Reserve == 0 {
		// §4.7's reservation is the forward-progress guarantee: with no
		// entries held back, regular fetch packs the RS/LQ/SQ with
		// instructions that cannot complete until the resolve path of an
		// unresolved branch dispatches — which then has no entries. The
		// resulting deadlock is architectural, so reject it up front
		// instead of letting the watchdog time out.
		return fmt.Errorf("core: Reserve 0 with selective flush deadlocks " +
			"(resolve paths starve, §4.7); reserve at least 1 entry")
	}
	if c.FetchWidth <= 0 || c.DispatchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("core: widths must be positive")
	}
	if c.ROBBlockSize < 1 {
		return fmt.Errorf("core: ROBBlockSize must be >= 1")
	}
	if err := bpred.Validate(c.Predictor); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
