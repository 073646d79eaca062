package emu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// buildStepLoop assembles a loop that never halts: every iteration loads,
// bumps and stores one word of a 64-word buffer and branches back, so a
// benchmark can step any number of instructions, on the correct path or
// a wrong path, without resetting anything.
func buildStepLoop() (*isa.Program, []byte) {
	l := program.NewLayout()
	buf := l.Alloc(64 * 8)
	b := program.NewBuilder("steploop")
	rB, rI, rV := b.Reg(), b.Reg(), b.Reg()
	b.Li(rB, int64(buf))
	b.Label("loop")
	b.LdX64(rV, rB, rI, 3)
	b.AddI(rV, rV, 1)
	b.StX64(rB, rI, 3, rV)
	b.AddI(rI, rI, 1)
	b.AndI(rI, rI, 63)
	b.Bne(rI, isa.R0, "loop")
	b.Jmp("loop")
	return b.Build(), l.Image()
}

// BenchmarkMachineStep measures one correct-path emulator step.
func BenchmarkMachineStep(b *testing.B) {
	p, mem := buildStepLoop()
	m := New(p, mem)
	var d DynInst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.StepInto(&d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShadowForkStep measures one mispredict's wrong path: a fork
// from the live machine followed by 64 wrong-path steps, nine of them
// buffered stores.
func BenchmarkShadowForkStep(b *testing.B) {
	p, mem := buildStepLoop()
	m := New(p, mem)
	if _, err := m.Step(); err != nil { // li: the buffer base
		b.Fatal(err)
	}
	dir := func(pc int, in isa.Inst, actual bool) bool { return actual }
	var s Shadow
	var d DynInst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reseed(m, m.PC, false, 0)
		for j := 0; j < 64; j++ {
			if !s.StepInto(dir, &d) {
				b.Fatal("wrong path died")
			}
		}
	}
}
