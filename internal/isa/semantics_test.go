package isa

import (
	"math/rand"
	"strings"
	"testing"
)

// semantics collects everything an instruction computes from its
// operand values s1, s2 (Src1, Src2) and v (Val): the register result,
// the branch direction, and for memory ops the effective address and the
// word written back (v for a store, the atomic update of a fixed old
// word for an atomic).
func semantics(in Inst, s1, s2, v uint64) [4]uint64 {
	var out [4]uint64
	out[0] = in.Eval(s1, s2)
	if in.Op.Taken(s1, s2) {
		out[1] = 1
	}
	if in.Op.IsMem() {
		out[2] = in.EffAddr(s1, s2)
	}
	switch {
	case in.Op.IsStore():
		out[3] = v
	case in.Op.IsAtomic():
		out[3] = in.Op.Atomic(1<<20, v)
	}
	return out
}

// TestReadsMatchSemantics: for every op, an operand field outside Reads
// never changes what the instruction computes, and each field in Reads
// does for some values.
func TestReadsMatchSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	value := func() uint64 { return rng.Uint64() >> uint(rng.Intn(64)) }
	for op := Op(0); op < numOps; op++ {
		in := Inst{Op: op, Src1: 1, Src2: 2, Val: 3, Imm: 3}
		regs, n := in.Reads()
		read := [3]bool{}
		for _, r := range regs[:n] {
			read[r-1] = true
		}
		for f := 0; f < 3; f++ {
			changed := false
			for k := 0; k < 2000 && !changed; k++ {
				vals := [3]uint64{value(), value(), value()}
				alt := vals
				alt[f] = value()
				if semantics(in, vals[0], vals[1], vals[2]) != semantics(in, alt[0], alt[1], alt[2]) {
					changed = true
				}
			}
			field := [3]string{"Src1", "Src2", "Val"}[f]
			if changed && !read[f] {
				t.Errorf("%v: %s changes the result but is not in Reads", op, field)
			}
			if !changed && read[f] {
				t.Errorf("%v: %s is in Reads but never changed the result", op, field)
			}
		}
	}
}

func TestReadsOrderAndZero(t *testing.T) {
	in := Inst{Op: StX64, Src1: 5, Src2: R0, Val: 5}
	regs, n := in.Reads()
	if got := regs[:n]; len(got) != 2 || got[0] != 5 || got[1] != 5 {
		t.Fatalf("StX64 r5, r0, val r5 reads %v, want [r5 r5]", got)
	}
	in = Inst{Op: AAddX32, Dst: 1, Src1: 2, Src2: 3, Val: 4}
	if regs, n := in.Reads(); n != 3 || regs != [3]Reg{2, 3, 4} {
		t.Fatalf("AAddX32 reads %v", regs[:n])
	}
}

func TestWordAccessBounds(t *testing.T) {
	mem := make([]byte, 16)
	if !WriteWord(mem, 8, 8, 0x0102030405060708) {
		t.Fatal("in-bounds write at the last word refused")
	}
	if v, ok := ReadWord(mem, 12, 4); !ok || v != 0x01020304 {
		t.Fatalf("ReadWord(12, 4) = %#x, %v", v, ok)
	}
	for _, a := range []struct {
		addr uint64
		size int
	}{{9, 8}, {13, 4}, {16, 4}, {^uint64(0) - 3, 8}, {^uint64(0) - 1, 4}} {
		if WordFits(mem, a.addr, a.size) {
			t.Errorf("%d bytes at %#x fit in 16 bytes", a.size, a.addr)
		}
		if v, ok := ReadWord(mem, a.addr, a.size); ok || v != 0 {
			t.Errorf("ReadWord(%#x, %d) = %#x, %v", a.addr, a.size, v, ok)
		}
		before := string(mem)
		if WriteWord(mem, a.addr, a.size, ^uint64(0)) || string(mem) != before {
			t.Errorf("WriteWord(%#x, %d) wrote outside memory", a.addr, a.size)
		}
	}
}

// TestValidateStrayOperands: an operand field the op does not use must
// be zero, one case per op class.
func TestValidateStrayOperands(t *testing.T) {
	bad := []Inst{
		{Op: Add, Dst: 1, Src1: 2, Src2: 3, Val: 4},
		{Op: AddI, Dst: 1, Src1: 2, Src2: 3},
		{Op: Li, Dst: 1, Src1: 2},
		{Op: Mov, Dst: 1, Src1: 2, Src2: 3},
		{Op: FAbs, Dst: 1, Src1: 2, Src2: 3},
		{Op: CvtFI, Dst: 1, Src1: 2, Val: 3},
		{Op: Ld64, Dst: 1, Src1: 2, Src2: 3},
		{Op: LdX32, Dst: 1, Src1: 2, Src2: 3, Val: 4},
		{Op: St64, Src1: 2, Src2: 3, Val: 4},
		{Op: StX32, Dst: 1, Src1: 2, Src2: 3, Val: 4},
		{Op: AAdd64, Dst: 1, Src1: 2, Src2: 3, Val: 4},
		{Op: Beq, Src1: 1, Src2: 2, Val: 3, Imm: 1},
		{Op: Bltu, Dst: 1, Src1: 1, Src2: 2, Imm: 1},
		{Op: Jmp, Src1: 1, Imm: 1},
		{Op: Nop, Dst: 1},
		{Op: Barrier, Src2: 1},
		{Op: SliceFence, Val: 1},
	}
	for _, in := range bad {
		p := &Program{Name: "stray", Code: []Inst{{Op: Nop}, in, {Op: Halt}}}
		err := Validate(p)
		if err == nil {
			t.Errorf("%v accepted", in)
		} else if !strings.Contains(err.Error(), "pc 1") {
			t.Errorf("%v: error %q does not name pc 1", in, err)
		}
	}
	// The same instructions with their stray field cleared are valid.
	for _, in := range bad {
		f := opReads[in.Op]
		if f&readsSrc1 == 0 {
			in.Src1 = R0
		}
		if f&readsSrc2 == 0 {
			in.Src2 = R0
		}
		if f&readsVal == 0 {
			in.Val = R0
		}
		if !in.Op.HasDst() {
			in.Dst = R0
		}
		p := &Program{Name: "clean", Code: []Inst{{Op: Nop}, in, {Op: Halt}}}
		if err := Validate(p); err != nil {
			t.Errorf("%v rejected: %v", in, err)
		}
	}
}
