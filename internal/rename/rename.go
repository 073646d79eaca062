// Package rename models the register rename table at the granularity the
// timing simulator needs: a map from architectural register to producing
// in-flight instruction, with O(1) checkpoints taken at branches and
// slice fences and restored on recovery (paper §3 and §4.2).
//
// Physical register identities are not modeled (the trace supplies
// values); what matters for timing is the dependence edges the table
// induces and the checkpoint/restore discipline of the selective-flush
// mechanism, including the CP1/CP2 dance of Fig. 2.
package rename

import "repro/internal/isa"

// Table maps architectural registers to their current producer of type P
// (the core's uop pointer). A zero P means the architectural value is
// ready (no in-flight producer).
type Table[P comparable] struct {
	m    [isa.NumRegs]P
	zero P
}

// Snapshot is a checkpoint of the full table.
type Snapshot[P comparable] struct {
	m [isa.NumRegs]P
}

// Producer returns the in-flight producer of r, or the zero P when the
// architectural value is ready. R0 never has a producer.
func (t *Table[P]) Producer(r isa.Reg) P {
	if r == isa.R0 {
		return t.zero
	}
	return t.m[r]
}

// SetProducer records p as the newest producer of r.
func (t *Table[P]) SetProducer(r isa.Reg, p P) {
	if r != isa.R0 {
		t.m[r] = p
	}
}

// Checkpoint captures the table (taken at every branch and slice_fence).
func (t *Table[P]) Checkpoint() Snapshot[P] { return Snapshot[P]{m: t.m} }

// Restore rolls the table back to a checkpoint.
func (t *Table[P]) Restore(s Snapshot[P]) { t.m = s.m }
