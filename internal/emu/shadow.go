package emu

import "repro/internal/isa"

// Shadow is the wrong-path engine: a fork of a Machine's architectural
// state that executes down a mispredicted path. Stores are buffered in a
// log and never reach real memory; loads read memory patched by the log.
// Out-of-range accesses are tolerated (flagged MemOOB) because wrong-path
// address computations can be arbitrary garbage.
//
// A core thread owns one Shadow and re-seeds it on every mispredict
// (Reseed), so the engine and its store log are allocated once per
// thread rather than once per mispredict. The zero value is ready for
// Reseed.
type Shadow struct {
	prog   *isa.Program
	mem    []byte // read-only view of the machine's memory
	regs   [isa.NumRegs]uint64
	pc     int
	stores []shadowStore // buffered in-memory stores, oldest first
	dead   bool          // ran off the code, halted, or otherwise cannot continue

	inSlice bool
	sliceID uint64
}

// shadowStore is one buffered wrong-path store of size bytes at addr.
type shadowStore struct {
	addr uint64
	size int
	val  uint64
}

// Reseed forks a wrong-path engine from m's current architectural state
// (program, memory view, register file), discarding whatever wrong path
// s was running: it starts fetching at startPC with an empty store log,
// and inSlice/sliceID seed the slice context the wrong path starts in
// (the context of the mispredicted branch).
func (s *Shadow) Reseed(m *Machine, startPC int, inSlice bool, sliceID uint64) {
	s.prog = m.Prog
	s.mem = m.Mem
	s.regs = m.Regs
	s.pc = startPC
	s.stores = s.stores[:0]
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
	v, ok := isa.ReadWord(s.mem, addr, size)
	if !ok {
		return v, ok
	}
	// Patch in the bytes of buffered wrong-path stores, oldest first, so
	// the last write to a byte wins. Both ranges lie inside memory, so
	// none of the sums below wraps.
	end := addr + uint64(size)
	for _, st := range s.stores {
		if st.addr >= end || st.addr+uint64(st.size) <= addr {
			continue
		}
		for a := max(addr, st.addr); a < min(end, st.addr+uint64(st.size)); a++ {
			shift := 8 * (a - addr)
			b := st.val >> (8 * (a - st.addr)) & 0xff
			v = v&^(0xff<<shift) | b<<shift
		}
	}
	return v, ok
}

func (s *Shadow) store(addr uint64, size int, v uint64) bool {
	if !isa.WordFits(s.mem, addr, size) {
		return false
	}
	s.stores = append(s.stores, shadowStore{addr: addr, size: size, val: v})
	return true
}

// StepInto executes one wrong-path instruction and writes its dynamic
// record into *d field by field. Conditional branches follow the
// direction the shadow's own register values compute. It returns false,
// with *d untouched, when the shadow is dead; the caller must stop
// fetching from it.
func (s *Shadow) StepInto(d *DynInst) bool {
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
	s1, s2 := s.get(in.Src1), s.get(in.Src2)

	switch op := in.Op; {
	case op.Computes():
		s.set(in.Dst, in.Eval(s1, s2))
	case op.IsBranch():
		d.Taken = op.Taken(s1, s2)
	case op.IsStore():
		d.Addr = in.EffAddr(s1, s2)
		d.MemOOB = !s.store(d.Addr, op.MemSize(), s.get(in.Val))
	case op.IsLoad(), op.IsAtomic():
		// An access outside memory reads 0 and stores nothing.
		d.Addr = in.EffAddr(s1, s2)
		old, ok := s.load(d.Addr, op.MemSize())
		d.MemOOB = !ok
		if ok && op.IsAtomic() {
			s.store(d.Addr, op.MemSize(), op.Atomic(old, s.get(in.Val)))
		}
		s.set(in.Dst, old)
	case op == isa.SliceStart:
		if !s.inSlice {
			s.inSlice = true
			s.sliceID = ^uint64(0) // wrong-path slices have no real id
		}
		d.SliceID = s.sliceID
	case op == isa.SliceEnd:
		s.inSlice = false
	case op == isa.Barrier, op == isa.Halt:
		// A wrong path reaching a barrier stops: the frontend would
		// stall here anyway.
		s.dead = true
	}
	d.NextPC = in.Next(s.pc, d.Taken)
	s.pc = d.NextPC
	if s.pc < 0 || s.pc >= len(s.prog.Code) {
		s.dead = true
	}
	return true
}
