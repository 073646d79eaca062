package emu

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/isa"
)

// TestStepEdgeValues runs one instruction at a time through Machine.Step
// on the operand values where integer, float and memory semantics are
// easiest to get wrong. Sources are r1 and r2 (r3 holds a store or
// atomic value), the destination is r4, and memory ops address the
// 8-byte word at 8. CvtFI of NaN or ±Inf is left out: Go leaves that
// conversion's result to the platform.
func TestStepEdgeValues(t *testing.T) {
	const rA, rB, rV, rD = 1, 2, 3, 4
	rr := func(op isa.Op) isa.Inst { return isa.Inst{Op: op, Dst: rD, Src1: rA, Src2: rB} }
	ri := func(op isa.Op, imm int64) isa.Inst { return isa.Inst{Op: op, Dst: rD, Src1: rA, Imm: imm} }
	br := func(op isa.Op) isa.Inst { return isa.Inst{Op: op, Src1: rA, Src2: rB, Imm: 1} }
	// mem addresses [r1+0] (plain) or [r1 + r2<<3] (indexed, r2 = 0).
	mem := func(op isa.Op) isa.Inst {
		in := isa.Inst{Op: op, Src1: rA}
		if op.Indexed() {
			in.Src2, in.Imm = rB, 3
		}
		if op.HasDst() {
			in.Dst = rD
		}
		if op.IsStore() || op.IsAtomic() {
			in.Val = rV
		}
		return in
	}
	i := func(v int64) uint64 { return uint64(v) }
	f := math.Float64bits
	nan := math.NaN()
	const minInt = math.MinInt64
	cases := []struct {
		name   string
		in     isa.Inst
		s1, s2 uint64
		val    uint64 // r3
		old    uint64 // memory word at 8 before the step
		want   uint64 // r4 after the step; a branch's direction as 1 or 0
		mem    uint64 // memory word at 8 after the step
	}{
		{"div by zero", rr(isa.Div), 7, 0, 0, 0, 0, 0},
		{"rem by zero", rr(isa.Rem), 7, 0, 0, 0, 7, 0},
		{"div truncates", rr(isa.Div), i(-7), 2, 0, 0, i(-3), 0},
		{"rem sign", rr(isa.Rem), i(-7), 2, 0, 0, i(-1), 0},
		{"minint / -1", rr(isa.Div), i(minInt), i(-1), 0, 0, i(minInt), 0},
		{"minint % -1", rr(isa.Rem), i(minInt), i(-1), 0, 0, 0, 0},
		{"mul wraps", rr(isa.Mul), 1 << 63, 2, 0, 0, 0, 0},
		{"muli wraps", ri(isa.MulI, -1), 1, 0, 0, 0, i(-1), 0},
		{"shl 64", rr(isa.Shl), 1, 64, 0, 0, 1, 0},
		{"shl 65", rr(isa.Shl), 1, 65, 0, 0, 2, 0},
		{"shr 127", rr(isa.Shr), 1 << 63, 127, 0, 0, 1, 0},
		{"shr logical", rr(isa.Shr), i(-1), 60, 0, 0, 15, 0},
		{"sra 64", rr(isa.Sra), i(minInt), 64, 0, 0, i(minInt), 0},
		{"sra arithmetic", rr(isa.Sra), i(-8), 1, 0, 0, i(-4), 0},
		{"shli 64", ri(isa.ShlI, 64), 3, 0, 0, 0, 3, 0},
		{"shri 70", ri(isa.ShrI, 70), 1 << 10, 0, 0, 0, 1 << 4, 0},
		{"min signed", rr(isa.Min), i(-1), 1, 0, 0, i(-1), 0},
		{"max signed", rr(isa.Max), i(-1), 1, 0, 0, 1, 0},
		{"addi negative", ri(isa.AddI, -5), 3, 0, 0, 0, i(-2), 0},
		{"andi sign-extends", ri(isa.AndI, -2), 7, 0, 0, 0, 6, 0},
		{"ori sign-extends", ri(isa.OrI, -8), 1, 0, 0, 0, i(-7), 0},
		{"xori sign-extends", ri(isa.XorI, -1), 0, 0, 0, 0, i(-1), 0},
		{"li 64-bit", isa.Inst{Op: isa.Li, Dst: rD, Imm: minInt + 1}, 9, 0, 0, 0, i(minInt + 1), 0},
		{"mov", ri(isa.Mov, 0), 42, 0, 0, 0, 42, 0},
		{"fadd", rr(isa.FAdd), f(1.5), f(2.25), 0, 0, f(3.75), 0},
		{"fsub", rr(isa.FSub), f(1.5), f(2.25), 0, 0, f(-0.75), 0},
		{"fmul", rr(isa.FMul), f(1.5), f(-2), 0, 0, f(-3), 0},
		{"fdiv by zero", rr(isa.FDiv), f(1), f(0), 0, 0, f(math.Inf(1)), 0},
		{"fabs -0", ri(isa.FAbs, 0), f(math.Copysign(0, -1)), 0, 0, 0, f(0), 0},
		{"fabs", ri(isa.FAbs, 0), f(-2.5), 0, 0, 0, f(2.5), 0},
		{"fmax nan", rr(isa.FMax), f(nan), f(1), 0, 0, f(math.Max(nan, 1)), 0},
		{"fmax signed zero", rr(isa.FMax), f(math.Copysign(0, -1)), f(0), 0, 0, f(0), 0},
		{"cvtif negative", ri(isa.CvtIF, 0), i(-3), 0, 0, 0, f(-3), 0},
		{"cvtfi truncates", ri(isa.CvtFI, 0), f(-3.7), 0, 0, 0, i(-3), 0},
		{"beq", br(isa.Beq), 5, 5, 0, 0, 1, 0},
		{"bne", br(isa.Bne), 5, 5, 0, 0, 0, 0},
		{"blt signed", br(isa.Blt), i(-1), 1, 0, 0, 1, 0},
		{"bge signed", br(isa.Bge), i(-1), 1, 0, 0, 0, 0},
		{"bltu unsigned", br(isa.Bltu), i(-1), 1, 0, 0, 0, 0},
		{"bgeu unsigned", br(isa.Bgeu), i(-1), 1, 0, 0, 1, 0},
		{"bflt nan left", br(isa.Bflt), f(nan), f(1), 0, 0, 0, 0},
		{"bflt nan right", br(isa.Bflt), f(1), f(nan), 0, 0, 0, 0},
		{"bfge nan left", br(isa.Bfge), f(nan), f(1), 0, 0, 0, 0},
		{"bfge nan right", br(isa.Bfge), f(1), f(nan), 0, 0, 0, 0},
		{"bfge equal zeros", br(isa.Bfge), f(math.Copysign(0, -1)), f(0), 0, 0, 1, 0},
		{"bflt", br(isa.Bflt), f(-1), f(0.5), 0, 0, 1, 0},
		{"ld32 zero-extends", mem(isa.Ld32), 8, 0, 0, 0xdeadbeef_ffffffff, 0xffffffff, 0xdeadbeef_ffffffff},
		{"ldx32 zero-extends", mem(isa.LdX32), 8, 0, 0, 0x1_80000000, 0x80000000, 0x1_80000000},
		{"ld64", mem(isa.Ld64), 8, 0, 0, i(-2), i(-2), i(-2)},
		{"st32 low half", mem(isa.St32), 8, 0, i(-1), 0x12345678_00000000, 0, 0x12345678_ffffffff},
		{"stx64", mem(isa.StX64), 8, 0, 77, 5, 0, 77},
		{"aadd32 wraps in 32 bits", mem(isa.AAdd32), 8, 0, 1, 0x7_ffffffff, 0xffffffff, 0x7_00000000},
		{"aadd64", mem(isa.AAddX64), 8, 0, i(-1), 10, 10, 9},
		{"amin64 unsigned", mem(isa.AMin64), 8, 0, i(-1), 5, 5, 5},
		{"amin64 takes smaller", mem(isa.AMinX64), 8, 0, 3, 5, 5, 3},
		{"amin32 unsigned", mem(isa.AMin32), 8, 0, 1, 0x80000000, 0x80000000, 1},
		// The 32-bit min compares the low halves of the old word and the
		// value, then stores the low half.
		{"amin32 compares low half", mem(isa.AMinX32), 8, 0, 0x1_00000002, 0x9_00000007, 7, 0x9_00000002},
		{"amin32 stores low half", mem(isa.AMinX32), 8, 0, 2, 0x9_00000007, 7, 0x9_00000002},
	}
	for _, c := range cases {
		p := &isa.Program{Name: c.name, Code: []isa.Inst{c.in, {Op: isa.Halt}}}
		if err := isa.Validate(p); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m := New(p, make([]byte, 24))
		binary.LittleEndian.PutUint64(m.Mem[8:], c.old)
		m.Regs[rA], m.Regs[rB], m.Regs[rV] = c.s1, c.s2, c.val
		d, err := m.Step()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := m.Regs[rD]
		if c.in.Op.IsBranch() {
			got = 0
			if d.Taken {
				got = 1
			}
		}
		if got != c.want {
			t.Errorf("%s: got %#x, want %#x", c.name, got, c.want)
		}
		if c.in.Op.IsMem() {
			if d.Addr != 8 {
				t.Errorf("%s: address %d, want 8", c.name, d.Addr)
			}
			if w := binary.LittleEndian.Uint64(m.Mem[8:]); w != c.mem {
				t.Errorf("%s: memory word %#x, want %#x", c.name, w, c.mem)
			}
		}
	}
}
