package isa

import (
	"testing"
	"testing/quick"
)

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op     Op
		load   bool
		store  bool
		atomic bool
		branch bool
		slice  bool
		size   int
	}{
		{Add, false, false, false, false, false, 0},
		{Ld64, true, false, false, false, false, 8},
		{Ld32, true, false, false, false, false, 4},
		{LdX32, true, false, false, false, false, 4},
		{St64, false, true, false, false, false, 8},
		{StX32, false, true, false, false, false, 4},
		{AAdd64, false, false, true, false, false, 8},
		{AMin32, false, false, true, false, false, 4},
		{AMinX64, false, false, true, false, false, 8},
		{Beq, false, false, false, true, false, 0},
		{Bfge, false, false, false, true, false, 0},
		{Jmp, false, false, false, false, false, 0},
		{SliceStart, false, false, false, false, true, 0},
		{SliceEnd, false, false, false, false, true, 0},
		{SliceFence, false, false, false, false, true, 0},
	}
	for _, c := range cases {
		if c.op.IsLoad() != c.load {
			t.Errorf("%v IsLoad = %v", c.op, c.op.IsLoad())
		}
		if c.op.IsStore() != c.store {
			t.Errorf("%v IsStore = %v", c.op, c.op.IsStore())
		}
		if c.op.IsAtomic() != c.atomic {
			t.Errorf("%v IsAtomic = %v", c.op, c.op.IsAtomic())
		}
		if c.op.IsBranch() != c.branch {
			t.Errorf("%v IsBranch = %v", c.op, c.op.IsBranch())
		}
		if c.op.IsSlice() != c.slice {
			t.Errorf("%v IsSlice = %v", c.op, c.op.IsSlice())
		}
		if c.op.MemSize() != c.size {
			t.Errorf("%v MemSize = %d, want %d", c.op, c.op.MemSize(), c.size)
		}
	}
}

// TestOpInvariantsQuick checks cross-cutting op predicates for every
// opcode value.
func TestOpInvariantsQuick(t *testing.T) {
	f := func(raw uint8) bool {
		op := Op(raw % uint8(numOps))
		// Memory predicate consistency.
		if op.IsMem() != (op.IsLoad() || op.IsStore() || op.IsAtomic()) {
			return false
		}
		// Mutually exclusive categories.
		n := 0
		for _, b := range []bool{op.IsLoad(), op.IsStore(), op.IsAtomic(), op.IsBranch(), op.IsSlice()} {
			if b {
				n++
			}
		}
		if n > 1 {
			return false
		}
		// Memory ops have a size; others don't.
		if op.IsMem() != (op.MemSize() > 0) {
			return false
		}
		// Control and stores have no destination; loads and atomics do.
		if (op.IsLoad() || op.IsAtomic()) && !op.HasDst() {
			return false
		}
		if (op.IsStore() || op.IsControl() || op.IsSlice()) && op.HasDst() {
			return false
		}
		// Every op has a name and a class with positive latency.
		if op.String() == "" || op.Class().Latency() < 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestClassLatencies(t *testing.T) {
	if ClassIntAlu.Latency() != 1 {
		t.Errorf("alu latency %d", ClassIntAlu.Latency())
	}
	if ClassIntDiv.Latency() <= ClassIntMul.Latency() {
		t.Errorf("div should be slower than mul")
	}
	if ClassFpDiv.Latency() <= ClassFp.Latency() {
		t.Errorf("fdiv should be slower than fp")
	}
}

func TestValidate(t *testing.T) {
	ok := &Program{Name: "ok", Code: []Inst{
		{Op: SliceStart},
		{Op: Add, Dst: 1, Src1: 2, Src2: 3},
		{Op: SliceEnd},
		{Op: SliceFence},
		{Op: Halt},
	}}
	if err := Validate(ok); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	bad := []struct {
		name string
		code []Inst
	}{
		{"empty", nil},
		{"no halt", []Inst{{Op: Add}}},
		{"branch out of range", []Inst{{Op: Beq, Imm: 5}, {Op: Halt}}},
		{"nested slice", []Inst{{Op: SliceStart}, {Op: SliceStart}, {Op: SliceEnd}, {Op: Halt}}},
		{"unmatched end", []Inst{{Op: SliceEnd}, {Op: Halt}}},
		{"fence in slice", []Inst{{Op: SliceStart}, {Op: SliceFence}, {Op: SliceEnd}, {Op: Halt}}},
		{"unterminated slice", []Inst{{Op: SliceStart}, {Op: Halt}}},
		{"reduce on branch", []Inst{{Op: Beq, Imm: 0, Flags: FlagReduce}, {Op: Halt}}},
		{"bad reg", []Inst{{Op: Add, Dst: 40}, {Op: Halt}}},
	}
	for _, b := range bad {
		p := &Program{Name: b.name, Code: b.code}
		if err := Validate(p); err == nil {
			t.Errorf("%s: invalid program accepted", b.name)
		}
	}
}

func TestInstString(t *testing.T) {
	in := Inst{Op: Add, Dst: 1, Src1: 2, Src2: 3}
	if in.String() == "" {
		t.Fatal("empty String()")
	}
	r := Inst{Op: Add, Dst: 1, Src1: 1, Src2: 2, Flags: FlagReduce}
	if !r.Reduce() {
		t.Fatal("reduce flag lost")
	}
	if got := r.String(); got[:7] != "reduce." {
		t.Fatalf("reduce prefix missing: %q", got)
	}
}
