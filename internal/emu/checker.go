package emu

import "repro/internal/isa"

// independenceChecker validates the software contract of paper §4.1 at
// runtime: instructions following a slice must be control and data
// independent of the instructions in the slice, up to the slice_fence.
// Concretely it flags:
//
//   - a read (inside a different slice, or outside any slice but before
//     the fence) of a memory location written by a slice,
//   - a read of a register last written inside a slice by any later
//     instruction outside that slice (register values produced in a slice
//     are dead at slice_end; cross-slice communication must go through
//     memory, §4.4),
//
// with exemptions for reduce-prefixed instructions and atomic adds, which
// are commutative by contract (§4.5).
//
// The checker is a test aid, enabled via Machine.CheckIndependence; the
// timing model relies on the contract rather than enforcing it, exactly as
// the proposed hardware does.
type independenceChecker struct {
	memOwner map[uint64]uint64   // byte address -> slice id that wrote it
	regOwner [isa.NumRegs]uint64 // register -> slice id of last writer (0 = none)
}

func (m *Machine) checker() *independenceChecker {
	if m.chk == nil {
		m.chk = &independenceChecker{memOwner: make(map[uint64]uint64)}
	}
	return m.chk
}

func (c *independenceChecker) write(m *Machine, addr uint64, size int) {
	for i := 0; i < size; i++ {
		if m.inSlice {
			c.memOwner[addr+uint64(i)] = m.sliceID
		} else {
			delete(c.memOwner, addr+uint64(i))
		}
	}
}

func (c *independenceChecker) read(m *Machine, addr uint64, size int) error {
	for i := 0; i < size; i++ {
		owner, ok := c.memOwner[addr+uint64(i)]
		if !ok {
			continue
		}
		if m.inSlice && owner == m.sliceID {
			continue // a slice may read its own writes
		}
		return m.fault("independence violation: read of %#x written by slice %d before fence",
			addr+uint64(i), owner)
	}
	return nil
}

func (c *independenceChecker) sliceEnded(uint64) {}

// fence clears memory ownership: after slice_fence, reads of slice-written
// memory are the sanctioned communication channel (§4.4).
func (c *independenceChecker) fence() {
	clear(c.memOwner)
}

// checkRegDiscipline enforces the register half of the contract for the
// instruction that just executed. inSlice is the slice state the
// instruction executed under.
func (m *Machine) checkRegDiscipline(in isa.Inst, inSlice bool) error {
	c := m.checker()
	if in.Reduce() {
		// Reduction accumulators legitimately live across slices and
		// are neither marked nor checked.
		return nil
	}
	regs, n := in.Reads()
	for _, r := range regs[:n] {
		owner := c.regOwner[r]
		if owner != 0 && (!inSlice || owner != m.sliceID) {
			return m.fault("independence violation: %v reads %v written inside slice %d", in, r, owner)
		}
	}
	if in.Op.HasDst() && in.Dst != isa.R0 {
		if inSlice {
			c.regOwner[in.Dst] = m.sliceID
		} else {
			c.regOwner[in.Dst] = 0
		}
	}
	return nil
}
