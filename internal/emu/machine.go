package emu

import (
	"fmt"

	"repro/internal/isa"
)

// Machine is the architectural state of one hardware thread. Step executes
// exactly one instruction in program order. Memory may be shared between
// machines (multicore workloads); the simulator interleaves Step calls
// deterministically and separates racing phases with barriers.
type Machine struct {
	Prog *isa.Program
	Regs [isa.NumRegs]uint64
	PC   int
	Mem  []byte
	// Halted is set once a Halt instruction executes.
	Halted bool

	seq     uint64
	inSlice bool
	sliceID uint64 // id of the current (or most recent) slice; 1-based

	// CheckIndependence enables the dynamic slice-discipline checker,
	// which validates the software contract of §4.1: no instruction
	// after a slice may read data the slice wrote (registers or memory)
	// before the next slice_fence. Intended for tests; adds overhead.
	CheckIndependence bool
	chk               *independenceChecker
}

// New returns a machine ready to run prog against the given memory image.
// The memory slice is used directly (not copied) so that multiple machines
// can share it.
func New(prog *isa.Program, mem []byte) *Machine {
	return &Machine{Prog: prog, Mem: mem}
}

// Seq returns the number of instructions executed so far.
func (m *Machine) Seq() uint64 { return m.seq }

// InSlice reports whether the next instruction to execute lies inside a
// slice.
func (m *Machine) InSlice() bool { return m.inSlice }

func (m *Machine) fault(format string, args ...any) error {
	return fmt.Errorf("%s: pc %d (#%d): %s", m.Prog.Name, m.PC, m.seq,
		fmt.Sprintf(format, args...))
}

func (m *Machine) get(r isa.Reg) uint64 {
	if r == isa.R0 {
		return 0
	}
	return m.Regs[r]
}

func (m *Machine) set(r isa.Reg, v uint64) {
	if r != isa.R0 {
		m.Regs[r] = v
	}
}

// outside is the fault for a size-byte access at addr that does not fit
// in memory.
func (m *Machine) outside(kind string, addr uint64, size int) error {
	return m.fault("%s of %d bytes at %#x outside memory (%d bytes)", kind, size, addr, len(m.Mem))
}

// Step executes one instruction and returns its dynamic record.
// Calling Step on a halted machine is an error.
func (m *Machine) Step() (DynInst, error) {
	var d DynInst
	err := m.StepInto(&d)
	return d, err
}

// StepInto executes one instruction and writes its dynamic record into
// *d, field by field, so a caller that owns the record's storage (a
// pooled uop, a scratch record) receives it without a copy. On an error
// before execution starts (halted, pc out of range) *d is left
// untouched; on a fault during execution it holds the partial record.
func (m *Machine) StepInto(d *DynInst) error {
	if m.Halted {
		return fmt.Errorf("%s: step after halt", m.Prog.Name)
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Code) {
		return m.fault("pc out of range")
	}
	in := m.Prog.Code[m.PC]
	d.Seq = m.seq
	d.PC = m.PC
	d.Inst = in
	d.Taken = false
	d.Addr = 0
	d.MemOOB = false
	d.InSlice = m.inSlice
	d.SliceID = m.sliceID
	d.Wrong = false

	s1, s2 := m.get(in.Src1), m.get(in.Src2)
	switch op := in.Op; {
	case op.Computes():
		m.set(in.Dst, in.Eval(s1, s2))
	case op.IsBranch():
		d.Taken = op.Taken(s1, s2)
	case op.IsStore():
		d.Addr = in.EffAddr(s1, s2)
		if !isa.WriteWord(m.Mem, d.Addr, op.MemSize(), m.get(in.Val)) {
			return m.outside("store", d.Addr, op.MemSize())
		}
		if m.CheckIndependence {
			m.checker().write(m, d.Addr, op.MemSize())
		}
	case op.IsLoad(), op.IsAtomic():
		d.Addr = in.EffAddr(s1, s2)
		old, ok := isa.ReadWord(m.Mem, d.Addr, op.MemSize())
		if !ok {
			return m.outside("load", d.Addr, op.MemSize())
		}
		if op.IsAtomic() {
			// Atomics are commutative read-modify-writes; the checker
			// treats them like reductions and exempts them.
			isa.WriteWord(m.Mem, d.Addr, op.MemSize(), op.Atomic(old, m.get(in.Val)))
		}
		m.set(in.Dst, old)
		if m.CheckIndependence && op.IsLoad() {
			if err := m.checker().read(m, d.Addr, op.MemSize()); err != nil {
				return err
			}
		}
	case op == isa.SliceStart:
		if m.inSlice {
			return m.fault("dynamic nested slice_start")
		}
		m.inSlice = true
		m.sliceID++
		d.SliceID = m.sliceID
	case op == isa.SliceEnd:
		if !m.inSlice {
			return m.fault("dynamic slice_end outside slice")
		}
		m.inSlice = false
		if m.CheckIndependence {
			m.checker().sliceEnded(m.sliceID)
		}
	case op == isa.SliceFence:
		if m.inSlice {
			return m.fault("dynamic slice_fence inside slice")
		}
		if m.CheckIndependence {
			m.checker().fence()
		}
	case op == isa.Halt:
		m.Halted = true
	case op == isa.Nop, op == isa.Jmp, op == isa.Barrier:
		// Barrier synchronization is coordinated by the simulator driver.
	default:
		return m.fault("unimplemented opcode %v", op)
	}
	d.NextPC = in.Next(m.PC, d.Taken)

	if m.CheckIndependence {
		if err := m.checkRegDiscipline(in, d.InSlice); err != nil {
			return err
		}
	}

	m.PC = d.NextPC
	m.seq++
	return nil
}

// Run executes until halt and returns the instruction count. It is the
// plain functional-simulation entry point (no timing), used by tests and
// by workload validation.
func (m *Machine) Run(maxInsts uint64) (uint64, error) {
	start := m.seq
	for !m.Halted {
		if _, err := m.Step(); err != nil {
			return m.seq - start, err
		}
		if maxInsts > 0 && m.seq-start >= maxInsts {
			return m.seq - start, m.fault("instruction budget %d exhausted", maxInsts)
		}
	}
	return m.seq - start, nil
}
