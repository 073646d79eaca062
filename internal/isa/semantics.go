package isa

import (
	"encoding/binary"
	"math"
)

// This file is the one definition of what an instruction computes, which
// registers it reads, where it accesses memory and where control goes
// next. The correct-path emulator, the wrong-path engine, the core's
// rename stage, the slice checker and the autoslice pass all call it.

// Computes reports whether op is one of the register-computing ops Eval
// defines (Add through CvtFI).
func (op Op) Computes() bool { return op >= Add && op <= CvtFI }

// Eval returns the value a register-computing instruction (Computes)
// writes to Dst, given the values of its Src1 and Src2 registers. It
// returns 0 for any other op.
func (in Inst) Eval(s1, s2 uint64) uint64 {
	imm := uint64(in.Imm)
	switch in.Op {
	case Add:
		return s1 + s2
	case Sub:
		return s1 - s2
	case Mul:
		return s1 * s2
	case Div:
		if s2 == 0 {
			return 0
		}
		return uint64(int64(s1) / int64(s2))
	case Rem:
		if s2 == 0 {
			return s1
		}
		return uint64(int64(s1) % int64(s2))
	case And:
		return s1 & s2
	case Or:
		return s1 | s2
	case Xor:
		return s1 ^ s2
	case Shl:
		return s1 << (s2 & 63)
	case Shr:
		return s1 >> (s2 & 63)
	case Sra:
		return uint64(int64(s1) >> (s2 & 63))
	case Min:
		return uint64(min(int64(s1), int64(s2)))
	case Max:
		return uint64(max(int64(s1), int64(s2)))
	case AddI:
		return s1 + imm
	case AndI:
		return s1 & imm
	case OrI:
		return s1 | imm
	case XorI:
		return s1 ^ imm
	case ShlI:
		return s1 << (imm & 63)
	case ShrI:
		return s1 >> (imm & 63)
	case MulI:
		return s1 * imm
	case Li:
		return imm
	case Mov:
		return s1
	case FAdd:
		return math.Float64bits(math.Float64frombits(s1) + math.Float64frombits(s2))
	case FSub:
		return math.Float64bits(math.Float64frombits(s1) - math.Float64frombits(s2))
	case FMul:
		return math.Float64bits(math.Float64frombits(s1) * math.Float64frombits(s2))
	case FDiv:
		return math.Float64bits(math.Float64frombits(s1) / math.Float64frombits(s2))
	case FAbs:
		return math.Float64bits(math.Abs(math.Float64frombits(s1)))
	case FMax:
		return math.Float64bits(math.Max(math.Float64frombits(s1), math.Float64frombits(s2)))
	case CvtIF:
		return math.Float64bits(float64(int64(s1)))
	case CvtFI:
		return uint64(int64(math.Float64frombits(s1)))
	}
	return 0
}

// Taken reports whether conditional branch op jumps, given the values of
// its Src1 and Src2 registers. It returns false for any other op.
func (op Op) Taken(s1, s2 uint64) bool {
	switch op {
	case Beq:
		return s1 == s2
	case Bne:
		return s1 != s2
	case Blt:
		return int64(s1) < int64(s2)
	case Bge:
		return int64(s1) >= int64(s2)
	case Bltu:
		return s1 < s2
	case Bgeu:
		return s1 >= s2
	case Bflt:
		return math.Float64frombits(s1) < math.Float64frombits(s2)
	case Bfge:
		return math.Float64frombits(s1) >= math.Float64frombits(s2)
	}
	return false
}

// Atomic returns the value atomic op stores back, given the old memory
// word (zero-extended) and the value of its Val register: the sum for
// the AAdd forms, the unsigned minimum for the AMin forms. A 32-bit form
// stores the low half of the result.
func (op Op) Atomic(old, v uint64) uint64 {
	switch op {
	case AMin64, AMin32, AMinX64, AMinX32:
		return min(old, v)
	}
	return old + v
}

// EffAddr returns a memory instruction's effective address, given the
// values of its Src1 and Src2 registers: Src1 + Imm for the plain forms,
// Src1 + (Src2 << Imm) for the indexed forms.
func (in Inst) EffAddr(s1, s2 uint64) uint64 {
	if in.Op.Indexed() {
		return s1 + (s2 << uint(in.Imm))
	}
	return s1 + uint64(in.Imm)
}

// Next returns the code index that follows the instruction at pc: the
// target Imm for a jump or a taken conditional branch, pc+1 otherwise.
func (in Inst) Next(pc int, taken bool) int {
	if in.Op == Jmp || taken && in.Op.IsBranch() {
		return int(in.Imm)
	}
	return pc + 1
}

// Operand fields an op reads.
const (
	readsSrc1 = 1 << iota
	readsSrc2
	readsVal
)

// opReads caches operandsOf for every Op value; it is built once at
// start-up and only read after.
var opReads = func() (t [256]uint8) {
	for i := range t {
		t[i] = Op(i).operandsOf()
	}
	return t
}()

// operandsOf is the definition behind Reads: which of the fields Src1,
// Src2 and Val op reads.
func (op Op) operandsOf() uint8 {
	switch {
	case op >= Add && op <= Max, op >= FAdd && op <= FDiv, op == FMax, op.IsBranch():
		return readsSrc1 | readsSrc2
	case op >= AddI && op <= MulI, op == Mov, op == FAbs, op == CvtIF, op == CvtFI:
		return readsSrc1
	case op.IsLoad(), op.IsStore(), op.IsAtomic():
		r := uint8(readsSrc1)
		if op.Indexed() {
			r |= readsSrc2
		}
		if !op.IsLoad() {
			r |= readsVal
		}
		return r
	}
	return 0
}

// Reads returns the registers the instruction reads, in operand order
// (Src1, Src2, Val), as regs[:n]. R0 is left out, since it always reads
// zero; a register named by two fields appears twice.
func (in Inst) Reads() (regs [3]Reg, n int) {
	f := opReads[in.Op]
	if f&readsSrc1 != 0 && in.Src1 != R0 {
		regs[n] = in.Src1
		n++
	}
	if f&readsSrc2 != 0 && in.Src2 != R0 {
		regs[n] = in.Src2
		n++
	}
	if f&readsVal != 0 && in.Val != R0 {
		regs[n] = in.Val
		n++
	}
	return regs, n
}

// WordFits reports whether a size-byte access at addr lies wholly inside
// mem; an addr+size that wraps around 2^64 does not.
func WordFits(mem []byte, addr uint64, size int) bool {
	end := addr + uint64(size)
	return end >= addr && end <= uint64(len(mem))
}

// ReadWord returns the little-endian word of size bytes (4 or 8) at addr
// in mem, zero-extended. ok is false, and the word 0, when the access
// does not fit in mem (WordFits).
func ReadWord(mem []byte, addr uint64, size int) (v uint64, ok bool) {
	if !WordFits(mem, addr, size) {
		return 0, false
	}
	if size == 4 {
		return uint64(binary.LittleEndian.Uint32(mem[addr:])), true
	}
	return binary.LittleEndian.Uint64(mem[addr:]), true
}

// WriteWord stores the low size bytes (4 or 8) of v little-endian at
// addr in mem. It returns false, writing nothing, when the access does
// not fit in mem (WordFits).
func WriteWord(mem []byte, addr uint64, size int, v uint64) bool {
	if !WordFits(mem, addr, size) {
		return false
	}
	if size == 4 {
		binary.LittleEndian.PutUint32(mem[addr:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(mem[addr:], v)
	}
	return true
}
