package emu

import (
	"encoding/binary"
	"fmt"
	"math"

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

func (m *Machine) load(addr uint64, size int) (uint64, error) {
	if addr+uint64(size) > uint64(len(m.Mem)) || addr+uint64(size) < addr {
		return 0, m.fault("load of %d bytes at %#x outside memory (%d bytes)",
			size, addr, len(m.Mem))
	}
	if size == 4 {
		return uint64(binary.LittleEndian.Uint32(m.Mem[addr:])), nil
	}
	return binary.LittleEndian.Uint64(m.Mem[addr:]), nil
}

func (m *Machine) store(addr uint64, size int, v uint64) error {
	if addr+uint64(size) > uint64(len(m.Mem)) || addr+uint64(size) < addr {
		return m.fault("store of %d bytes at %#x outside memory (%d bytes)",
			size, addr, len(m.Mem))
	}
	if size == 4 {
		binary.LittleEndian.PutUint32(m.Mem[addr:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(m.Mem[addr:], v)
	}
	return nil
}

// effAddr computes the effective address of a memory instruction.
func effAddr(in isa.Inst, src1, src2 uint64) uint64 {
	if in.Op.Indexed() {
		return src1 + (src2 << uint(in.Imm))
	}
	return src1 + uint64(in.Imm)
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
	next := m.PC + 1

	s1, s2 := m.get(in.Src1), m.get(in.Src2)
	switch in.Op {
	case isa.Nop:
	case isa.Add:
		m.set(in.Dst, s1+s2)
	case isa.Sub:
		m.set(in.Dst, s1-s2)
	case isa.Mul:
		m.set(in.Dst, s1*s2)
	case isa.Div:
		if s2 == 0 {
			m.set(in.Dst, 0)
		} else {
			m.set(in.Dst, uint64(int64(s1)/int64(s2)))
		}
	case isa.Rem:
		if s2 == 0 {
			m.set(in.Dst, s1)
		} else {
			m.set(in.Dst, uint64(int64(s1)%int64(s2)))
		}
	case isa.And:
		m.set(in.Dst, s1&s2)
	case isa.Or:
		m.set(in.Dst, s1|s2)
	case isa.Xor:
		m.set(in.Dst, s1^s2)
	case isa.Shl:
		m.set(in.Dst, s1<<(s2&63))
	case isa.Shr:
		m.set(in.Dst, s1>>(s2&63))
	case isa.Sra:
		m.set(in.Dst, uint64(int64(s1)>>(s2&63)))
	case isa.Min:
		m.set(in.Dst, uint64(min(int64(s1), int64(s2))))
	case isa.Max:
		m.set(in.Dst, uint64(max(int64(s1), int64(s2))))

	case isa.AddI:
		m.set(in.Dst, s1+uint64(in.Imm))
	case isa.AndI:
		m.set(in.Dst, s1&uint64(in.Imm))
	case isa.OrI:
		m.set(in.Dst, s1|uint64(in.Imm))
	case isa.XorI:
		m.set(in.Dst, s1^uint64(in.Imm))
	case isa.ShlI:
		m.set(in.Dst, s1<<(uint64(in.Imm)&63))
	case isa.ShrI:
		m.set(in.Dst, s1>>(uint64(in.Imm)&63))
	case isa.MulI:
		m.set(in.Dst, s1*uint64(in.Imm))

	case isa.Li:
		m.set(in.Dst, uint64(in.Imm))
	case isa.Mov:
		m.set(in.Dst, s1)

	case isa.FAdd:
		m.set(in.Dst, fop(s1, s2, '+'))
	case isa.FSub:
		m.set(in.Dst, fop(s1, s2, '-'))
	case isa.FMul:
		m.set(in.Dst, fop(s1, s2, '*'))
	case isa.FDiv:
		m.set(in.Dst, fop(s1, s2, '/'))
	case isa.FAbs:
		m.set(in.Dst, math.Float64bits(math.Abs(math.Float64frombits(s1))))
	case isa.FMax:
		m.set(in.Dst, math.Float64bits(math.Max(math.Float64frombits(s1), math.Float64frombits(s2))))
	case isa.CvtIF:
		m.set(in.Dst, math.Float64bits(float64(int64(s1))))
	case isa.CvtFI:
		m.set(in.Dst, uint64(int64(math.Float64frombits(s1))))

	case isa.Ld64, isa.Ld32, isa.LdX64, isa.LdX32:
		d.Addr = effAddr(in, s1, s2)
		v, err := m.load(d.Addr, in.Op.MemSize())
		if err != nil {
			return err
		}
		m.set(in.Dst, v)
		if m.CheckIndependence {
			if err := m.checker().read(m, d.Addr, in.Op.MemSize()); err != nil {
				return err
			}
		}
	case isa.St64, isa.St32, isa.StX64, isa.StX32:
		d.Addr = effAddr(in, s1, s2)
		if err := m.store(d.Addr, in.Op.MemSize(), m.get(in.Val)); err != nil {
			return err
		}
		if m.CheckIndependence {
			m.checker().write(m, d.Addr, in.Op.MemSize())
		}
	case isa.AAdd64, isa.AAdd32, isa.AAddX64, isa.AAddX32,
		isa.AMin64, isa.AMin32, isa.AMinX64, isa.AMinX32:
		d.Addr = effAddr(in, s1, s2)
		size := in.Op.MemSize()
		old, err := m.load(d.Addr, size)
		if err != nil {
			return err
		}
		nv := old + m.get(in.Val)
		switch in.Op {
		case isa.AMin64, isa.AMin32, isa.AMinX64, isa.AMinX32:
			nv = min(old, m.get(in.Val))
		}
		if err := m.store(d.Addr, size, nv); err != nil {
			return err
		}
		m.set(in.Dst, old)
		// Atomics are commutative read-modify-writes; the checker
		// treats them like reductions and exempts them.

	case isa.Beq:
		d.Taken = s1 == s2
	case isa.Bne:
		d.Taken = s1 != s2
	case isa.Blt:
		d.Taken = int64(s1) < int64(s2)
	case isa.Bge:
		d.Taken = int64(s1) >= int64(s2)
	case isa.Bltu:
		d.Taken = s1 < s2
	case isa.Bgeu:
		d.Taken = s1 >= s2
	case isa.Bflt:
		d.Taken = math.Float64frombits(s1) < math.Float64frombits(s2)
	case isa.Bfge:
		d.Taken = math.Float64frombits(s1) >= math.Float64frombits(s2)
	case isa.Jmp:
		next = int(in.Imm)

	case isa.SliceStart:
		if m.inSlice {
			return m.fault("dynamic nested slice_start")
		}
		m.inSlice = true
		m.sliceID++
		d.SliceID = m.sliceID
	case isa.SliceEnd:
		if !m.inSlice {
			return m.fault("dynamic slice_end outside slice")
		}
		m.inSlice = false
		if m.CheckIndependence {
			m.checker().sliceEnded(m.sliceID)
		}
	case isa.SliceFence:
		if m.inSlice {
			return m.fault("dynamic slice_fence inside slice")
		}
		if m.CheckIndependence {
			m.checker().fence()
		}
	case isa.Barrier:
		// Synchronization is coordinated by the simulator driver.
	case isa.Halt:
		m.Halted = true
	default:
		return m.fault("unimplemented opcode %v", in.Op)
	}

	if in.Op.IsBranch() && d.Taken {
		next = int(in.Imm)
	}
	d.NextPC = next

	if m.CheckIndependence {
		if err := m.checkRegDiscipline(in, d.InSlice); err != nil {
			return err
		}
	}

	m.PC = next
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

func fop(a, b uint64, op byte) uint64 {
	x, y := math.Float64frombits(a), math.Float64frombits(b)
	var r float64
	switch op {
	case '+':
		r = x + y
	case '-':
		r = x - y
	case '*':
		r = x * y
	case '/':
		r = x / y
	}
	return math.Float64bits(r)
}
