package core

// Stats aggregates everything the paper's figures report about one core.
type Stats struct {
	Cycles    int64
	Committed uint64

	// Dispatched-instruction breakdown (Fig. 6): correct-path, wrong-
	// path, and slice-instruction overhead (markers take frontend and
	// dispatch slots but are discarded at dispatch).
	DispCorrect  uint64
	DispWrong    uint64
	DispOverhead uint64

	// Branch statistics.
	Branches    uint64
	Mispredicts uint64
	// SliceRecoveries counts mispredictions recovered selectively;
	// ConvRecoveries counts conventional full flushes (non-slice
	// branches, FRQ overflow, or a non-selective Recovery policy).
	SliceRecoveries uint64
	ConvRecoveries  uint64

	// Flush accounting.
	FlushedSelective uint64 // uops removed by selective flushes
	FlushedFull      uint64 // uops removed by conventional flushes
	GapsCreated      uint64 // ROB entries stranded by block partitioning (Fig. 8)

	// FetchedWrongPath counts wrong-path instructions fetched (some are
	// flushed in the frontend and never dispatch).
	FetchedWrongPath uint64
	// NestedMisses counts mispredictions detected inside resolve paths.
	NestedMisses uint64

	// FRQPeak is the maximum fetch redirect queue occupancy observed.
	FRQPeak int

	// Recovery-policy diagnostics: cycles spent draining parked victims
	// of a partial flush, and cycles the throttle policy narrowed fetch
	// to one slot because a low-confidence branch was outstanding.
	DrainCycles     uint64
	ThrottledCycles uint64

	// Uop conservation counters (the differential-fuzz oracle): every uop
	// created by fetch must end committed, squashed after entering the
	// window, or discarded while still in the frontend (slice markers,
	// frontend flushes). At quiesce,
	// UopsFetched == Committed + UopsSquashed + UopsFEDiscarded.
	UopsFetched     uint64
	UopsSquashed    uint64
	UopsFEDiscarded uint64

	// Cycle stack (Fig. 5): fractions of total cycles attributed to
	// useful execution, branch-miss resolution, memory stalls, and
	// everything else. Each cycle contributes commit-slot fractions.
	StackExec   float64
	StackBranch float64
	StackMem    float64
	StackOther  float64

	// Occupancy integrals for average-occupancy reporting.
	ROBOccupancySum uint64

	// Fine-grained diagnostics (not part of the paper's figures).
	FetchNormal    uint64 // instructions fetched from the regular trace
	FetchWrong     uint64 // instructions fetched from wrong paths
	FetchResolve   uint64 // instructions fetched from resolve segments
	FetchIdle      uint64 // fetch cycles with no instruction delivered
	HoldSplice     uint64 // commit-slot fractions lost at splice cursors
	HoldMem        uint64 // zero-commit cycles with a memory op at head
	SegLenSum      uint64 // total resolve-segment instructions buffered
	OutstandingSum uint64 // per-cycle sum of long-latency loads in flight
	LongLoads      uint64 // loads whose latency exceeded 100 cycles
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per conditional branch.
func (s *Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// MPKI returns mispredictions per kilo-instruction.
func (s *Stats) MPKI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return 1000 * float64(s.Mispredicts) / float64(s.Committed)
}

// StackTotal returns the sum of the stack components (≈ Cycles).
func (s *Stats) StackTotal() float64 {
	return s.StackExec + s.StackBranch + s.StackMem + s.StackOther
}

// Add accumulates other into s (multicore aggregation).
func (s *Stats) Add(o *Stats) {
	if o.Cycles > s.Cycles {
		s.Cycles = o.Cycles
	}
	s.Committed += o.Committed
	s.DispCorrect += o.DispCorrect
	s.DispWrong += o.DispWrong
	s.DispOverhead += o.DispOverhead
	s.Branches += o.Branches
	s.Mispredicts += o.Mispredicts
	s.SliceRecoveries += o.SliceRecoveries
	s.ConvRecoveries += o.ConvRecoveries
	s.FlushedSelective += o.FlushedSelective
	s.FlushedFull += o.FlushedFull
	s.GapsCreated += o.GapsCreated
	s.FetchedWrongPath += o.FetchedWrongPath
	s.NestedMisses += o.NestedMisses
	if o.FRQPeak > s.FRQPeak {
		s.FRQPeak = o.FRQPeak
	}
	s.DrainCycles += o.DrainCycles
	s.ThrottledCycles += o.ThrottledCycles
	s.UopsFetched += o.UopsFetched
	s.UopsSquashed += o.UopsSquashed
	s.UopsFEDiscarded += o.UopsFEDiscarded
	s.StackExec += o.StackExec
	s.StackBranch += o.StackBranch
	s.StackMem += o.StackMem
	s.StackOther += o.StackOther
	s.ROBOccupancySum += o.ROBOccupancySum
	s.FetchNormal += o.FetchNormal
	s.FetchWrong += o.FetchWrong
	s.FetchResolve += o.FetchResolve
	s.FetchIdle += o.FetchIdle
	s.HoldSplice += o.HoldSplice
	s.HoldMem += o.HoldMem
	s.SegLenSum += o.SegLenSum
	s.OutstandingSum += o.OutstandingSum
	s.LongLoads += o.LongLoads
}
