package emu

import (
	"encoding/binary"
	"math"

	"repro/internal/isa"
)

// BranchDir decides the direction a wrong-path conditional branch takes.
// The core passes the branch predictor's decision here, so the wrong path
// follows exactly what the frontend would fetch. actual is the direction
// the shadow's own (wrong-path) register values produce, which a predictor
// model may ignore.
type BranchDir func(pc int, in isa.Inst, actual bool) bool

// Shadow is the wrong-path engine: a fork of a Machine's architectural
// state that executes down a mispredicted path. Stores are buffered in an
// overlay and never reach real memory; loads read through the overlay.
// Out-of-range accesses are tolerated (flagged MemOOB) because wrong-path
// address computations can be arbitrary garbage.
//
// A frontend owns one Shadow and re-seeds it on every fork (Reseed), so
// the engine and its overlay map are allocated once per frontend rather
// than once per mispredict. The zero value is ready for Reseed.
type Shadow struct {
	prog    *isa.Program
	mem     []byte // read-only view of the machine's memory
	regs    [isa.NumRegs]uint64
	pc      int
	overlay map[uint64]byte // allocated lazily on the first buffered store
	dead    bool            // ran off the code, halted, or otherwise cannot continue

	inSlice bool
	sliceID uint64
}

// Reseed forks a wrong-path engine from an explicit architectural
// snapshot (program, memory view, register file), discarding whatever
// wrong path s was running: it starts fetching at startPC with an empty
// store overlay, and inSlice/sliceID seed the slice context the wrong
// path starts in (the context of the mispredicted branch). Frontends
// call it from Fork on the Shadow they own.
func (s *Shadow) Reseed(prog *isa.Program, mem []byte, regs [isa.NumRegs]uint64,
	startPC int, inSlice bool, sliceID uint64) {
	s.prog = prog
	s.mem = mem
	s.regs = regs
	s.pc = startPC
	clear(s.overlay)
	s.dead = false
	s.inSlice = inSlice
	s.sliceID = sliceID
}

// Dead reports whether the shadow can no longer produce instructions.
func (s *Shadow) Dead() bool { return s.dead }

// NextPC returns the code index the shadow will fetch next.
func (s *Shadow) NextPC() int { return s.pc }

// InSlice reports the shadow's current slice context.
func (s *Shadow) InSlice() bool { return s.inSlice }

func (s *Shadow) get(r isa.Reg) uint64 {
	if r == isa.R0 {
		return 0
	}
	return s.regs[r]
}

func (s *Shadow) set(r isa.Reg, v uint64) {
	if r != isa.R0 {
		s.regs[r] = v
	}
}

func (s *Shadow) load(addr uint64, size int) (uint64, bool) {
	if addr+uint64(size) > uint64(len(s.mem)) || addr+uint64(size) < addr {
		return 0, false
	}
	var v uint64
	if size == 4 {
		v = uint64(binary.LittleEndian.Uint32(s.mem[addr:]))
	} else {
		v = binary.LittleEndian.Uint64(s.mem[addr:])
	}
	// Patch in overlay bytes from buffered wrong-path stores.
	if len(s.overlay) != 0 {
		for i := 0; i < size; i++ {
			if b, ok := s.overlay[addr+uint64(i)]; ok {
				shift := uint(8 * i)
				v = v&^(0xff<<shift) | uint64(b)<<shift
			}
		}
	}
	return v, true
}

func (s *Shadow) store(addr uint64, size int, v uint64) bool {
	if addr+uint64(size) > uint64(len(s.mem)) || addr+uint64(size) < addr {
		return false
	}
	if s.overlay == nil {
		s.overlay = make(map[uint64]byte)
	}
	for i := 0; i < size; i++ {
		s.overlay[addr+uint64(i)] = byte(v >> uint(8*i))
	}
	return true
}

// StepInto executes one wrong-path instruction and writes its dynamic
// record into *d field by field. Conditional branches follow the
// direction dir returns (the predicted direction). It returns false, with
// *d untouched, when the shadow is dead; the caller must stop fetching
// from it.
func (s *Shadow) StepInto(dir BranchDir, d *DynInst) bool {
	if s.dead || s.pc < 0 || s.pc >= len(s.prog.Code) {
		s.dead = true
		return false
	}
	in := s.prog.Code[s.pc]
	d.Seq = 0
	d.PC = s.pc
	d.Inst = in
	d.Taken = false
	d.Addr = 0
	d.MemOOB = false
	d.InSlice = s.inSlice
	d.SliceID = s.sliceID
	d.Wrong = true
	next := s.pc + 1
	s1, s2 := s.get(in.Src1), s.get(in.Src2)

	switch in.Op {
	case isa.Nop:
	case isa.Add:
		s.set(in.Dst, s1+s2)
	case isa.Sub:
		s.set(in.Dst, s1-s2)
	case isa.Mul:
		s.set(in.Dst, s1*s2)
	case isa.Div:
		if s2 == 0 {
			s.set(in.Dst, 0)
		} else {
			s.set(in.Dst, uint64(int64(s1)/int64(s2)))
		}
	case isa.Rem:
		if s2 == 0 {
			s.set(in.Dst, s1)
		} else {
			s.set(in.Dst, uint64(int64(s1)%int64(s2)))
		}
	case isa.And:
		s.set(in.Dst, s1&s2)
	case isa.Or:
		s.set(in.Dst, s1|s2)
	case isa.Xor:
		s.set(in.Dst, s1^s2)
	case isa.Shl:
		s.set(in.Dst, s1<<(s2&63))
	case isa.Shr:
		s.set(in.Dst, s1>>(s2&63))
	case isa.Sra:
		s.set(in.Dst, uint64(int64(s1)>>(s2&63)))
	case isa.Min:
		s.set(in.Dst, uint64(min(int64(s1), int64(s2))))
	case isa.Max:
		s.set(in.Dst, uint64(max(int64(s1), int64(s2))))
	case isa.AddI:
		s.set(in.Dst, s1+uint64(in.Imm))
	case isa.AndI:
		s.set(in.Dst, s1&uint64(in.Imm))
	case isa.OrI:
		s.set(in.Dst, s1|uint64(in.Imm))
	case isa.XorI:
		s.set(in.Dst, s1^uint64(in.Imm))
	case isa.ShlI:
		s.set(in.Dst, s1<<(uint64(in.Imm)&63))
	case isa.ShrI:
		s.set(in.Dst, s1>>(uint64(in.Imm)&63))
	case isa.MulI:
		s.set(in.Dst, s1*uint64(in.Imm))
	case isa.Li:
		s.set(in.Dst, uint64(in.Imm))
	case isa.Mov:
		s.set(in.Dst, s1)
	case isa.FAdd:
		s.set(in.Dst, fop(s1, s2, '+'))
	case isa.FSub:
		s.set(in.Dst, fop(s1, s2, '-'))
	case isa.FMul:
		s.set(in.Dst, fop(s1, s2, '*'))
	case isa.FDiv:
		s.set(in.Dst, fop(s1, s2, '/'))
	case isa.FAbs:
		s.set(in.Dst, math.Float64bits(math.Abs(math.Float64frombits(s1))))
	case isa.FMax:
		s.set(in.Dst, math.Float64bits(math.Max(math.Float64frombits(s1), math.Float64frombits(s2))))
	case isa.CvtIF:
		s.set(in.Dst, math.Float64bits(float64(int64(s1))))
	case isa.CvtFI:
		s.set(in.Dst, uint64(int64(math.Float64frombits(s1))))

	case isa.Ld64, isa.Ld32, isa.LdX64, isa.LdX32:
		d.Addr = effAddr(in, s1, s2)
		v, ok := s.load(d.Addr, in.Op.MemSize())
		if !ok {
			d.MemOOB = true
			v = 0
		}
		s.set(in.Dst, v)
	case isa.St64, isa.St32, isa.StX64, isa.StX32:
		d.Addr = effAddr(in, s1, s2)
		if !s.store(d.Addr, in.Op.MemSize(), s.get(in.Val)) {
			d.MemOOB = true
		}
	case isa.AAdd64, isa.AAdd32, isa.AAddX64, isa.AAddX32,
		isa.AMin64, isa.AMin32, isa.AMinX64, isa.AMinX32:
		d.Addr = effAddr(in, s1, s2)
		size := in.Op.MemSize()
		old, ok := s.load(d.Addr, size)
		if !ok {
			d.MemOOB = true
			old = 0
		} else {
			nv := old + s.get(in.Val)
			switch in.Op {
			case isa.AMin64, isa.AMin32, isa.AMinX64, isa.AMinX32:
				nv = min(old, s.get(in.Val))
			}
			s.store(d.Addr, size, nv)
		}
		s.set(in.Dst, old)

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
		if !s.inSlice {
			s.inSlice = true
			s.sliceID = ^uint64(0) // wrong-path slices have no real id
		}
		d.SliceID = s.sliceID
	case isa.SliceEnd:
		s.inSlice = false
	case isa.SliceFence:
		// Nothing to track on a wrong path.
	case isa.Barrier:
		// A wrong path reaching a barrier stops: the frontend would
		// stall here anyway.
		s.dead = true
	case isa.Halt:
		s.dead = true
	}

	if in.Op.IsBranch() {
		d.Taken = dir(s.pc, in, d.Taken)
		if d.Taken {
			next = int(in.Imm)
		} else {
			next = s.pc + 1
		}
	}
	d.NextPC = next
	s.pc = next
	if s.pc < 0 || s.pc >= len(s.prog.Code) {
		s.dead = true
	}
	return true
}
