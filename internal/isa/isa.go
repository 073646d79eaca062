// Package isa defines the virtual instruction set executed by the
// functional emulator and timed by the out-of-order core model.
//
// The ISA is a small, RISC-like, 64-bit register machine extended with the
// three slice instructions from the paper (slice_start, slice_end,
// slice_fence), a reduce prefix flag for commutative reduction updates that
// must execute non-speculatively at the head of the ROB, and a barrier
// instruction used by multicore (OpenMP-style) workloads.
//
// Instructions are held as structs rather than packed words: the simulator
// is the only consumer, and struct encoding keeps the emulator and the
// pipeline model simple and fast.
package isa

import "fmt"

// Reg names an architectural register. R0 is hardwired to zero: reads
// return 0 and writes are discarded, as in MIPS/RISC-V.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 32

// R0 is the hardwired zero register.
const R0 Reg = 0

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Op enumerates the operations of the virtual ISA.
type Op uint8

// Operations. Arithmetic is 64-bit; signed ops interpret register bits as
// two's complement int64. Float ops interpret register bits as IEEE-754
// float64. Memory addresses are byte addresses into the flat data memory.
const (
	Nop Op = iota

	// Integer register-register.
	Add // Dst = Src1 + Src2
	Sub // Dst = Src1 - Src2
	Mul // Dst = Src1 * Src2
	Div // Dst = int64(Src1) / int64(Src2); x/0 = 0
	Rem // Dst = int64(Src1) % int64(Src2); x%0 = x
	And // Dst = Src1 & Src2
	Or  // Dst = Src1 | Src2
	Xor // Dst = Src1 ^ Src2
	Shl // Dst = Src1 << (Src2 & 63)
	Shr // Dst = Src1 >> (Src2 & 63), logical
	Sra // Dst = int64(Src1) >> (Src2 & 63), arithmetic
	Min // Dst = min(int64(Src1), int64(Src2))
	Max // Dst = max(int64(Src1), int64(Src2))

	// Integer register-immediate.
	AddI // Dst = Src1 + Imm
	AndI // Dst = Src1 & Imm
	OrI  // Dst = Src1 | Imm
	XorI // Dst = Src1 ^ Imm
	ShlI // Dst = Src1 << (Imm & 63)
	ShrI // Dst = Src1 >> (Imm & 63), logical
	MulI // Dst = Src1 * Imm

	// Data movement.
	Li  // Dst = Imm (full 64-bit immediate)
	Mov // Dst = Src1

	// Floating point (register bits as float64).
	FAdd  // Dst = Src1 + Src2
	FSub  // Dst = Src1 - Src2
	FMul  // Dst = Src1 * Src2
	FDiv  // Dst = Src1 / Src2
	FAbs  // Dst = |Src1|
	FMax  // Dst = max(Src1, Src2)
	CvtIF // Dst = float64(int64(Src1))
	CvtFI // Dst = int64(float64bits(Src1))

	// Memory. Effective address: base Src1 + Imm for plain forms,
	// Src1 + (Src2 << Imm) for indexed forms. Stores read the value
	// from Val. 32-bit loads zero-extend.
	Ld64
	Ld32
	St64
	St32
	LdX64
	LdX32
	StX64
	StX32

	// Atomic fetch-and-add to memory (the x86 `lock xadd` the GAP
	// kernels rely on). Dst receives the old value; the memory word is
	// incremented by Val's register value. Address forms mirror the
	// plain/indexed load forms.
	AAdd64
	AAdd32
	AAddX64
	AAddX32

	// Atomic unsigned-min to memory (the CAS-min loops GAP kernels use
	// for depth/distance/label updates). Dst receives the old value.
	AMin64
	AMin32
	AMinX64
	AMinX32

	// Control. Conditional branches compare Src1 with Src2 and jump to
	// the absolute code index Imm when the condition holds; otherwise
	// fall through. Jmp is unconditional.
	Beq
	Bne
	Blt  // signed <
	Bge  // signed >=
	Bltu // unsigned <
	Bgeu // unsigned >=
	Bflt // float <
	Bfge // float >=
	Jmp

	// Slice annotations (paper §4.1). Encodable as no-ops on cores
	// without selective-flush support; they carry no operands.
	SliceStart
	SliceEnd
	SliceFence

	// Barrier synchronizes all cores of a multicore run (OpenMP-style
	// implicit barrier). Single-core runs treat it as a no-op.
	Barrier

	// Halt ends the program.
	Halt

	numOps // sentinel
)

var opNames = [numOps]string{
	Nop: "nop",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr", Sra: "sra",
	Min: "min", Max: "max",
	AddI: "addi", AndI: "andi", OrI: "ori", XorI: "xori",
	ShlI: "shli", ShrI: "shri", MulI: "muli",
	Li: "li", Mov: "mov",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv",
	FAbs: "fabs", FMax: "fmax", CvtIF: "cvtif", CvtFI: "cvtfi",
	Ld64: "ld64", Ld32: "ld32", St64: "st64", St32: "st32",
	LdX64: "ldx64", LdX32: "ldx32", StX64: "stx64", StX32: "stx32",
	AAdd64: "aadd64", AAdd32: "aadd32", AAddX64: "aaddx64", AAddX32: "aaddx32",
	AMin64: "amin64", AMin32: "amin32", AMinX64: "aminx64", AMinX32: "aminx32",
	Beq: "beq", Bne: "bne", Blt: "blt", Bge: "bge",
	Bltu: "bltu", Bgeu: "bgeu", Bflt: "bflt", Bfge: "bfge",
	Jmp:        "jmp",
	SliceStart: "slice_start", SliceEnd: "slice_end", SliceFence: "slice_fence",
	Barrier: "barrier",
	Halt:    "halt",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Flag is a bit set of instruction modifiers.
type Flag uint8

// FlagReduce marks a commutative reduction update (paper §4.5). Under the
// selective-flush mechanism the instruction is not renamed and executes
// only when it reaches the head of the ROB.
const FlagReduce Flag = 1 << 0

// Inst is one static instruction.
type Inst struct {
	Op    Op
	Dst   Reg
	Src1  Reg
	Src2  Reg
	Val   Reg   // value register of stores and atomics
	Imm   int64 // immediate, address offset, shift scale, or branch target
	Flags Flag
}

// Reduce reports whether the instruction carries the reduce prefix.
func (in Inst) Reduce() bool { return in.Flags&FlagReduce != 0 }

func (in Inst) String() string {
	pfx := ""
	if in.Reduce() {
		pfx = "reduce."
	}
	switch {
	case in.Op.IsBranch():
		return fmt.Sprintf("%s%s %s, %s, @%d", pfx, in.Op, in.Src1, in.Src2, in.Imm)
	case in.Op == Jmp:
		return fmt.Sprintf("jmp @%d", in.Imm)
	case in.Op.IsStore():
		return fmt.Sprintf("%s%s [%s+%s<<%d], %s", pfx, in.Op, in.Src1, in.Src2, in.Imm, in.Val)
	case in.Op.IsLoad():
		return fmt.Sprintf("%s%s %s, [%s+%s<<%d]", pfx, in.Op, in.Dst, in.Src1, in.Src2, in.Imm)
	case in.Op == Li:
		return fmt.Sprintf("li %s, %d", in.Dst, in.Imm)
	default:
		return fmt.Sprintf("%s%s %s, %s, %s, imm=%d", pfx, in.Op, in.Dst, in.Src1, in.Src2, in.Imm)
	}
}

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool { return op >= Beq && op <= Bfge }

// IsControl reports whether op redirects the PC (branch or jump).
func (op Op) IsControl() bool { return op.IsBranch() || op == Jmp }

// IsLoad reports whether op reads data memory.
func (op Op) IsLoad() bool {
	return op == Ld64 || op == Ld32 || op == LdX64 || op == LdX32
}

// IsStore reports whether op writes data memory.
func (op Op) IsStore() bool {
	return op == St64 || op == St32 || op == StX64 || op == StX32
}

// IsAtomic reports whether op is an atomic read-modify-write.
func (op Op) IsAtomic() bool {
	switch op {
	case AAdd64, AAdd32, AAddX64, AAddX32, AMin64, AMin32, AMinX64, AMinX32:
		return true
	}
	return false
}

// IsMem reports whether op accesses data memory.
func (op Op) IsMem() bool { return op.IsLoad() || op.IsStore() || op.IsAtomic() }

// IsSlice reports whether op is one of the three slice annotations.
func (op Op) IsSlice() bool {
	return op == SliceStart || op == SliceEnd || op == SliceFence
}

// MemSize returns the access width in bytes for memory ops, else 0.
func (op Op) MemSize() int {
	switch op {
	case Ld64, St64, LdX64, StX64, AAdd64, AAddX64, AMin64, AMinX64:
		return 8
	case Ld32, St32, LdX32, StX32, AAdd32, AAddX32, AMin32, AMinX32:
		return 4
	}
	return 0
}

// Indexed reports whether a memory op uses the scaled-index address form.
func (op Op) Indexed() bool {
	switch op {
	case LdX64, LdX32, StX64, StX32, AAddX64, AAddX32, AMinX64, AMinX32:
		return true
	}
	return false
}

// HasDst reports whether the instruction writes a destination register.
func (op Op) HasDst() bool {
	switch {
	case op.IsStore(), op.IsBranch(), op == Jmp, op.IsSlice(),
		op == Nop, op == Barrier, op == Halt:
		return false
	}
	return true
}

// Class buckets operations for execution-latency and port modeling.
type Class uint8

// Execution classes.
const (
	ClassNop Class = iota
	ClassIntAlu
	ClassIntMul
	ClassIntDiv
	ClassFp
	ClassFpDiv
	ClassLoad
	ClassStore
	ClassAtomic
	ClassBranch
	ClassSlice
	ClassBarrier
	ClassHalt

	// NumClasses is the number of execution classes, for tables indexed
	// by Class.
	NumClasses
)

var classNames = map[Class]string{
	ClassNop: "nop", ClassIntAlu: "alu", ClassIntMul: "mul",
	ClassIntDiv: "div", ClassFp: "fp", ClassFpDiv: "fpdiv",
	ClassLoad: "load", ClassStore: "store", ClassAtomic: "atomic", ClassBranch: "branch",
	ClassSlice: "slice", ClassBarrier: "barrier", ClassHalt: "halt",
}

func (c Class) String() string { return classNames[c] }

// Class returns the execution class of op.
func (op Op) Class() Class { return opClasses[op] }

// opClasses caches classify for every Op value, valid or not; it is
// built once at start-up and only read after.
var opClasses = func() (t [256]Class) {
	for i := range t {
		t[i] = Op(i).classify()
	}
	return t
}()

// classify is the definition behind Class.
func (op Op) classify() Class {
	switch {
	case op == Nop:
		return ClassNop
	case op == Mul || op == MulI:
		return ClassIntMul
	case op == Div || op == Rem:
		return ClassIntDiv
	case op == FDiv:
		return ClassFpDiv
	case op >= FAdd && op <= CvtFI:
		return ClassFp
	case op.IsLoad():
		return ClassLoad
	case op.IsStore():
		return ClassStore
	case op.IsAtomic():
		return ClassAtomic
	case op.IsControl():
		return ClassBranch
	case op.IsSlice():
		return ClassSlice
	case op == Barrier:
		return ClassBarrier
	case op == Halt:
		return ClassHalt
	}
	return ClassIntAlu
}

// Latency returns the execution latency in cycles for non-memory classes.
// Loads and stores are timed by the cache model.
func (c Class) Latency() int {
	switch c {
	case ClassIntMul:
		return 3
	case ClassIntDiv:
		return 20
	case ClassFp:
		return 4
	case ClassFpDiv:
		return 12
	default:
		return 1
	}
}

// Program is a static program: straight code plus metadata. Data memory is
// provided separately by the workload (see internal/emu.Machine).
type Program struct {
	Name   string
	Code   []Inst
	Labels map[string]int // label -> code index, for diagnostics
}
