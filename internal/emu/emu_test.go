package emu

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/program"
)

// buildArith assembles a little program exercising the integer ALU,
// writing results to memory for inspection.
func buildArith() (*isa.Program, []byte, uint64) {
	l := program.NewLayout()
	out := l.Alloc(128)
	b := program.NewBuilder("arith")
	rOut, rA, rB, rT := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rOut, int64(out))
	b.Li(rA, 100)
	b.Li(rB, 7)
	b.Add(rT, rA, rB)
	b.St64(rOut, 0, rT) // 107
	b.Sub(rT, rA, rB)
	b.St64(rOut, 8, rT) // 93
	b.Mul(rT, rA, rB)
	b.St64(rOut, 16, rT) // 700
	b.Div(rT, rA, rB)
	b.St64(rOut, 24, rT) // 14
	b.Rem(rT, rA, rB)
	b.St64(rOut, 32, rT) // 2
	b.ShlI(rT, rA, 3)
	b.St64(rOut, 40, rT) // 800
	b.Min(rT, rA, rB)
	b.St64(rOut, 48, rT) // 7
	b.Max(rT, rA, rB)
	b.St64(rOut, 56, rT) // 100
	b.Div(rT, rA, isa.R0)
	b.St64(rOut, 64, rT) // x/0 = 0
	b.Halt()
	return b.Build(), l.Image(), out
}

func TestMachineArith(t *testing.T) {
	p, mem, out := buildArith()
	m := New(p, mem)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []uint64{107, 93, 700, 14, 2, 800, 7, 100, 0}
	for i, w := range want {
		if got := program.ReadU64(mem, out+uint64(i)*8); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestMachineFloat(t *testing.T) {
	l := program.NewLayout()
	out := l.Alloc(64)
	b := program.NewBuilder("float")
	rOut, rA, rB, rT := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rOut, int64(out))
	b.LiF(rA, 2.5)
	b.LiF(rB, 4.0)
	b.FAdd(rT, rA, rB)
	b.St64(rOut, 0, rT) // 6.5
	b.FMul(rT, rA, rB)
	b.St64(rOut, 8, rT) // 10.0
	b.FDiv(rT, rB, rA)
	b.St64(rOut, 16, rT) // 1.6
	b.LiF(rT, -3.75)
	b.FAbs(rT, rT)
	b.St64(rOut, 24, rT) // 3.75
	b.Li(rT, 9)
	b.CvtIF(rT, rT)
	b.St64(rOut, 32, rT) // 9.0
	b.Halt()
	m := New(b.Build(), l.Image())
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, w := range []float64{6.5, 10.0, 1.6, 3.75, 9.0} {
		if got := program.ReadF64(m.Mem, out+uint64(i)*8); got != w {
			t.Errorf("out[%d] = %g, want %g", i, got, w)
		}
	}
}

func TestMachineAtomics(t *testing.T) {
	l := program.NewLayout()
	word := l.AllocU64(2, []uint64{10, 100})
	b := program.NewBuilder("atomics")
	rW, rV, rOld := b.Reg(), b.Reg(), b.Reg()
	b.Li(rW, int64(word))
	b.Li(rV, 5)
	b.AAdd64(rOld, rW, 0, rV) // 10 -> 15, old 10
	b.St64(rW, 8, rOld)       // word[1] = 10
	b.Li(rV, 3)
	b.AMin64(rOld, rW, 0, rV) // 15 -> 3
	b.Halt()
	m := New(b.Build(), l.Image())
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := program.ReadU64(m.Mem, word); got != 3 {
		t.Errorf("word = %d, want 3", got)
	}
	if got := program.ReadU64(m.Mem, word+8); got != 10 {
		t.Errorf("old = %d, want 10", got)
	}
}

func TestMachineFaults(t *testing.T) {
	b := program.NewBuilder("oob")
	r := b.Reg()
	b.Li(r, 1<<40)
	b.Ld64(r, r, 0)
	b.Halt()
	m := New(b.Build(), make([]byte, 64))
	if _, err := m.Run(0); err == nil {
		t.Fatal("out-of-bounds load not detected")
	}

	// Step after halt errors.
	b2 := program.NewBuilder("halt")
	b2.Halt()
	m2 := New(b2.Build(), nil)
	if _, err := m2.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Step(); err == nil {
		t.Fatal("step after halt should fail")
	}
}

// TestDeterminism: the same program and seed memory produce identical
// dynamic streams.
func TestDeterminism(t *testing.T) {
	f := func(a, bv uint64) bool {
		p, mem1, _ := buildArith()
		_, mem2, _ := buildArith()
		m1, m2 := New(p, mem1), New(p, mem2)
		for !m1.Halted {
			d1, err1 := m1.Step()
			d2, err2 := m2.Step()
			if err1 != nil || err2 != nil {
				return false
			}
			if d1 != d2 {
				return false
			}
		}
		return bytes.Equal(mem1, mem2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// buildSliceLoop builds a sliced loop whose branch outcome depends on the
// memory values, for the shadow tests.
func buildSliceLoop(n int, vals []uint32) (*isa.Program, []byte, uint64) {
	l := program.NewLayout()
	in := l.AllocU32(n, vals)
	out := l.AllocU32(n, nil)
	b := program.NewBuilder("sliceloop")
	rI, rN, rIn, rOut, rX, rT := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rIn, int64(in))
	b.Li(rOut, int64(out))
	b.Label("loop")
	b.Bge(rI, rN, "done")
	b.SliceStart(true)
	b.LdX32(rX, rIn, rI, 2)
	b.AndI(rT, rX, 1)
	b.Beq(rT, isa.R0, "even")
	b.MulI(rX, rX, 3)
	b.Label("even")
	b.StX32(rOut, rI, 2, rX)
	b.SliceEnd(true)
	b.AddI(rI, rI, 1)
	b.Jmp("loop")
	b.Label("done")
	b.SliceFence(true)
	b.Halt()
	return b.Build(), l.Image(), out
}

// forkShadow forks a wrong-path engine from m the way the core does.
func forkShadow(m *Machine, startPC int, inSlice bool, sliceID uint64) *Shadow {
	s := new(Shadow)
	s.Reseed(m, startPC, inSlice, sliceID)
	return s
}

func TestShadowIsolation(t *testing.T) {
	p, mem, out := buildSliceLoop(4, []uint32{1, 2, 3, 4})
	m := New(p, mem)
	// Run to just after the first in-slice branch.
	for {
		d, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if d.IsBranch() && d.InSlice {
			break
		}
	}
	before := append([]byte(nil), mem...)
	regsBefore := m.Regs

	// Shadow on from the branch; it rolls forward through the loop's
	// remaining stores.
	s := forkShadow(m, m.PC, true, 1)
	var d DynInst
	stores := 0
	for i := 0; i < 50 && !s.Dead(); i++ {
		if !s.StepInto(&d) {
			break
		}
		if d.Inst.Op.IsStore() {
			stores++
		}
	}
	if stores == 0 {
		t.Fatal("shadow executed no store")
	}
	// Architectural state untouched.
	if !bytes.Equal(before, mem) {
		t.Fatal("shadow leaked stores into architectural memory")
	}
	if regsBefore != m.Regs {
		t.Fatal("shadow modified machine registers")
	}
	_ = out
}

func TestShadowForwarding(t *testing.T) {
	// A shadow's own stores must be visible to its later loads.
	l := program.NewLayout()
	buf := l.Alloc(64)
	b := program.NewBuilder("fwd")
	rB, rV, rT := b.Reg(), b.Reg(), b.Reg()
	b.Li(rB, int64(buf))
	b.Li(rV, 1234)
	b.St64(rB, 0, rV)
	b.Ld64(rT, rB, 0)
	b.St64(rB, 8, rT)
	b.Halt()
	p := b.Build()
	m := New(p, l.Image())
	s := forkShadow(m, 0, false, 0)
	var d DynInst
	var lastLd DynInst
	for !s.Dead() {
		if !s.StepInto(&d) {
			break
		}
		if d.Inst.Op == isa.Ld64 {
			lastLd = d
		}
	}
	if lastLd.PC == 0 {
		t.Fatal("shadow never executed the load")
	}
	// Architectural memory still zero at buf.
	if got := program.ReadU64(m.Mem, buf); got != 0 {
		t.Fatalf("architectural memory modified: %d", got)
	}
}

func TestShadowOOB(t *testing.T) {
	b := program.NewBuilder("oob")
	r := b.Reg()
	b.Li(r, 1<<40)
	b.Ld64(r, r, 0)
	b.Halt()
	p := b.Build()
	m := New(p, make([]byte, 64))
	s := forkShadow(m, 0, false, 0)
	var d DynInst
	oob := false
	for !s.Dead() {
		if !s.StepInto(&d) {
			break
		}
		if d.MemOOB {
			oob = true
		}
	}
	if !oob {
		t.Fatal("shadow out-of-bounds access not flagged")
	}
}

// TestShadowReseedIsolated reseeds one Shadow twice from a live
// machine, as a core thread does on successive mispredicts: the second
// wrong path must not see the first one's buffered store, so it loads
// the stored word and must read the architectural value. Each path
// exposes the value it loaded as the address of a dependent load.
func TestShadowReseedIsolated(t *testing.T) {
	l := program.NewLayout()
	x := l.AllocU64(1, []uint64{7})
	b := program.NewBuilder("reseediso")
	rX, rV, rW := b.Reg(), b.Reg(), b.Reg()
	b.Li(rX, int64(x))
	b.Li(rV, 99)
	b.Halt()
	const firstPC = 3 // st x=99; ld w=x; ld [w]
	b.St64(rX, 0, rV)
	b.Ld64(rW, rX, 0)
	b.Ld64(rW, rW, 0)
	b.Halt()
	const secondPC = 7 // ld w=x; ld [w]
	b.Ld64(rW, rX, 0)
	b.Ld64(rW, rW, 0)
	b.Halt()
	m := New(b.Build(), l.Image())
	for i := 0; i < 2; i++ { // the two li: x's address and 99
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var s Shadow
	// loadedValue reseeds s at pc, runs n records and returns the address
	// of the last one: the value the path's previous load produced.
	loadedValue := func(pc, n int) uint64 {
		s.Reseed(m, pc, false, 0)
		var d DynInst
		for i := 0; i < n; i++ {
			if !s.StepInto(&d) {
				t.Fatalf("wrong path from %d died at record %d", pc, i)
			}
		}
		return d.Addr
	}
	if got := loadedValue(firstPC, 3); got != 99 {
		t.Fatalf("first wrong path read %d, want its own store 99", got)
	}
	if got := loadedValue(secondPC, 2); got != 7 {
		t.Fatalf("second wrong path read %d, want the architectural 7", got)
	}
}

func TestIndependenceCheckerCatchesViolation(t *testing.T) {
	// A slice stores to memory; code after the slice (before the fence)
	// reads it: a §4.1 contract violation.
	l := program.NewLayout()
	buf := l.Alloc(64)
	b := program.NewBuilder("violate")
	rB, rV := b.Reg(), b.Reg()
	b.Li(rB, int64(buf))
	b.Li(rV, 1)
	b.SliceStart(true)
	b.St64(rB, 0, rV)
	b.SliceEnd(true)
	b.Ld64(rV, rB, 0) // reads slice-written memory before the fence
	b.SliceFence(true)
	b.Halt()
	m := New(b.Build(), l.Image())
	m.CheckIndependence = true
	if _, err := m.Run(0); err == nil {
		t.Fatal("memory independence violation not caught")
	}
}

func TestIndependenceCheckerRegisterViolation(t *testing.T) {
	b := program.NewBuilder("regviolate")
	rA, rB := b.Reg(), b.Reg()
	b.SliceStart(true)
	b.Li(rA, 42)
	b.SliceEnd(true)
	b.Mov(rB, rA) // reads a slice-written register outside the slice
	b.SliceFence(true)
	b.Halt()
	m := New(b.Build(), make([]byte, 64))
	m.CheckIndependence = true
	if _, err := m.Run(0); err == nil {
		t.Fatal("register independence violation not caught")
	}
}

func TestIndependenceCheckerAllowsFenceReads(t *testing.T) {
	l := program.NewLayout()
	buf := l.Alloc(64)
	b := program.NewBuilder("fenced")
	rB, rV := b.Reg(), b.Reg()
	b.Li(rB, int64(buf))
	b.Li(rV, 1)
	b.SliceStart(true)
	b.St64(rB, 0, rV)
	b.SliceEnd(true)
	b.SliceFence(true)
	b.Ld64(rV, rB, 0) // after the fence: the sanctioned channel
	b.Halt()
	m := New(b.Build(), l.Image())
	m.CheckIndependence = true
	if _, err := m.Run(0); err != nil {
		t.Fatalf("legal post-fence read rejected: %v", err)
	}
}

func TestIndependenceCheckerAllowsReduce(t *testing.T) {
	b := program.NewBuilder("reduce")
	acc := b.Reg()
	b.Li(acc, 0)
	for i := 0; i < 2; i++ {
		b.SliceStart(true)
		b.Reduce().AddI(acc, acc, 1)
		b.SliceEnd(true)
	}
	b.SliceFence(true)
	b.Halt()
	m := New(b.Build(), make([]byte, 64))
	m.CheckIndependence = true
	if _, err := m.Run(0); err != nil {
		t.Fatalf("reduce accumulator rejected: %v", err)
	}
	if m.Regs[1] != 2 {
		t.Fatalf("acc = %d, want 2", m.Regs[1])
	}
}

func TestRunAllBarrierPhases(t *testing.T) {
	// Two machines: A writes, barrier, B reads A's value in phase 2.
	l := program.NewLayout()
	buf := l.Alloc(64)

	ba := program.NewBuilder("writer")
	rB, rV := ba.Reg(), ba.Reg()
	ba.Li(rB, int64(buf))
	ba.Li(rV, 77)
	ba.SliceStart(true)
	ba.St64(rB, 0, rV)
	ba.Nop()
	ba.SliceEnd(true)
	ba.Barrier()
	ba.Halt()

	bb := program.NewBuilder("reader")
	rB2, rV2 := bb.Reg(), bb.Reg()
	bb.Li(rB2, int64(buf))
	bb.Barrier()
	bb.Ld64(rV2, rB2, 0)
	bb.St64(rB2, 8, rV2)
	bb.Halt()

	mem := l.Image()
	progs := []*isa.Program{bb.Build(), ba.Build()}
	ms := []*Machine{New(progs[0], mem), New(progs[1], mem)}
	commits, err := RunAll(ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := program.ReadU64(mem, buf+8); got != 77 {
		t.Fatalf("reader saw %d, want 77", got)
	}
	// Both programs are straight-line, so every instruction runs once;
	// the count leaves out the slice markers and the nop.
	var want uint64
	for _, p := range progs {
		for _, in := range p.Code {
			if !in.Op.IsSlice() && in.Op != isa.Nop {
				want++
			}
		}
	}
	if commits != want || want == 0 {
		t.Fatalf("RunAll counted %d instructions, want %d", commits, want)
	}
}
