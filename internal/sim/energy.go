package sim

// Energy estimation supporting the paper's efficiency claim (§6.1: "we
// can also claim better energy efficiency, because fewer instructions
// need to be processed"). The model is an event-energy proxy: each
// pipeline and memory event carries a fixed cost, in arbitrary units
// normalized to one ALU execution = 1. The weights follow the
// relative magnitudes reported by McPAT-style models for a Skylake-class
// core (frontend and scheduling dominate per-instruction core energy;
// DRAM dominates per-access memory energy). Absolute joules are out of
// scope; the reproduction target is the *relative* energy of baseline vs
// sliced execution.
const (
	perFetchDispatch = 2.0   // fetch+decode+rename+dispatch per instruction
	perExecute       = 1.0   // schedule+execute+writeback per instruction
	perCommit        = 0.5   // retirement bookkeeping
	perL1            = 1.0   // L1D access
	perL2            = 4.0   // L2 access
	perLLC           = 15.0  // LLC access
	perDRAM          = 120.0 // DRAM line transfer
	perCycleStatic   = 0.5   // leakage/clock per cycle
)

// Energy is the per-component breakdown of one run.
type Energy struct {
	Frontend float64 // fetch/dispatch of every instruction (incl. wrong path and markers)
	Execute  float64
	Commit   float64
	Caches   float64
	DRAM     float64
	Static   float64
}

// Total sums the components.
func (e Energy) Total() float64 {
	return e.Frontend + e.Execute + e.Commit + e.Caches + e.DRAM + e.Static
}

// EstimateEnergy applies the model to a run's counters.
func EstimateEnergy(r *Result) Energy {
	s := r.Total
	dispatched := s.DispCorrect + s.DispWrong + s.DispOverhead
	executed := s.DispCorrect + s.DispWrong // markers never execute
	return Energy{
		Frontend: perFetchDispatch * float64(dispatched),
		Execute:  perExecute * float64(executed),
		Commit:   perCommit * float64(s.Committed),
		Caches: perL1*float64(r.L1DAccesses) +
			perL2*float64(r.L2Accesses) +
			perLLC*float64(r.LLCAccesses),
		DRAM:   perDRAM * float64(r.DRAMLines),
		Static: perCycleStatic * float64(r.Cycles),
	}
}
