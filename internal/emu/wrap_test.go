package emu_test

import (
	"context"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// TestOutOfRangeAccessFaults runs 8-byte loads, stores and atomics at two
// addresses the correct-path emulator must reject: 2^64-4, where
// addr+size wraps around to a small number, and len(mem)-4, which runs
// off the end. Each must come back as an error from Step, Run and
// trace.Capture, never as a panic.
func TestOutOfRangeAccessFaults(t *testing.T) {
	l := program.NewLayout()
	l.Alloc(64)
	img := l.Image()
	ops := []struct {
		name string
		emit func(b *program.Builder, addr, val isa.Reg)
	}{
		{"load", func(b *program.Builder, addr, val isa.Reg) { b.Ld64(val, addr, 0) }},
		{"store", func(b *program.Builder, addr, val isa.Reg) { b.St64(addr, 0, val) }},
		{"atomic", func(b *program.Builder, addr, val isa.Reg) { b.AAdd64(val, addr, 0, val) }},
	}
	addrs := []struct {
		name string
		addr int64
	}{
		{"wrapped", -4},
		{"past-end", int64(len(img)) - 4},
	}
	for _, op := range ops {
		for _, a := range addrs {
			b := program.NewBuilder(op.name + "-" + a.name)
			rA, rV := b.Reg(), b.Reg()
			b.Li(rA, a.addr)
			b.Li(rV, 5)
			op.emit(b, rA, rV)
			b.Halt()
			prog := b.Build()
			mem := func() []byte { return append([]byte(nil), img...) }
			name := op.name + " at " + a.name

			m := emu.New(prog, mem())
			var err error
			for i := 0; i < 3 && err == nil; i++ {
				_, err = m.Step()
			}
			if err == nil {
				t.Errorf("%s: Step returned no error", name)
			}
			if _, err := emu.New(prog, mem()).Run(0); err == nil {
				t.Errorf("%s: Run returned no error", name)
			}
			if _, err := trace.Capture(context.Background(), prog, mem()); err == nil {
				t.Errorf("%s: trace.Capture returned no error", name)
			}
		}
	}
}
