package trace

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/program"
)

// buildSliced assembles a small sliced loop exercising every record
// class: plain and indexed loads/stores, an atomic reduction, data-
// dependent branches inside the slice, and the slice markers themselves.
func buildSliced(n int, seed uint64) (*isa.Program, []byte) {
	rng := graph.NewRNG(seed)
	a := make([]uint32, n)
	for i := range a {
		a[i] = uint32(rng.Next())
	}
	l := program.NewLayout()
	aBase := l.AllocU32(n, a)
	bBase := l.AllocU32(n, nil)
	cntBase := l.AllocU32(1, nil)

	b := program.NewBuilder("tracetest")
	rI, rN, rA, rB, rC := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rX, rT, rY, rOne, rOld := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rA, int64(aBase))
	b.Li(rB, int64(bBase))
	b.Li(rC, int64(cntBase))
	b.Li(rOne, 1)
	b.Label("loop")
	b.Bge(rI, rN, "done")
	b.SliceStart(true)
	b.LdX32(rX, rA, rI, 2)
	b.AndI(rT, rX, 1)
	b.Beq(rT, isa.R0, "even")
	b.MulI(rY, rX, 3)
	b.StX32(rB, rI, 2, rY)
	b.AAdd32(rOld, rC, 0, rOne) // count odds with an atomic
	b.Jmp("endif")
	b.Label("even")
	b.AddI(rY, rX, 7)
	b.StX32(rB, rI, 2, rY)
	b.Label("endif")
	b.SliceEnd(true)
	b.AddI(rI, rI, 1)
	b.Jmp("loop")
	b.Label("done")
	b.SliceFence(true)
	b.Halt()
	return b.Build(), l.Image()
}

// TestReplayMatchesMachine steps a live machine and a replay of its own
// capture in lockstep and requires identical DynInst streams, the
// replay's end exactly at the machine's halt, and identical final
// memory.
func TestReplayMatchesMachine(t *testing.T) {
	prog, img := buildSliced(300, 7)

	capMem := append([]byte(nil), img...)
	tr, err := Capture(context.Background(), prog, capMem)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 || tr.ID() == "" {
		t.Fatalf("empty trace: len=%d id=%q", tr.Len(), tr.ID())
	}

	liveMem := append([]byte(nil), img...)
	m := emu.New(prog, liveMem)
	repMem := append([]byte(nil), img...)
	r, err := NewReplay(tr, prog, repMem)
	if err != nil {
		t.Fatal(err)
	}

	for !m.Halted {
		if r.Done() {
			t.Fatalf("replay ended before the machine halted, at record %d", m.Seq())
		}
		want, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d diverges:\n  replay  %+v\n  machine %+v", want.Seq, got, want)
		}
	}
	if !r.Done() {
		t.Fatal("machine halted but replay is not done")
	}
	if _, err := r.Step(); err == nil {
		t.Fatal("Step after halt should error")
	}
	if !bytes.Equal(repMem, liveMem) || !bytes.Equal(repMem, capMem) {
		t.Fatal("replayed memory image diverges from live execution")
	}
}

// TestTraceContentAddress pins digest behavior: identical executions hash
// identically, different inputs differently.
func TestTraceContentAddress(t *testing.T) {
	prog, img := buildSliced(50, 3)
	t1, err := Capture(context.Background(), prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Capture(context.Background(), prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	if t1.ID() != t2.ID() {
		t.Fatalf("same execution, different IDs: %s vs %s", t1.ID(), t2.ID())
	}
	prog3, img3 := buildSliced(50, 4)
	t3, err := Capture(context.Background(), prog3, append([]byte(nil), img3...))
	if err != nil {
		t.Fatal(err)
	}
	if t3.ID() == t1.ID() {
		t.Fatal("different inputs, same trace ID")
	}
}

// TestReplayRejectsWrongProgram checks the cheap identity guard.
func TestReplayRejectsWrongProgram(t *testing.T) {
	prog, img := buildSliced(20, 1)
	tr, err := Capture(context.Background(), prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	other := &isa.Program{Name: "other", Code: prog.Code}
	if _, err := NewReplay(tr, other, img); err == nil {
		t.Fatal("NewReplay accepted a mismatched program")
	}
}

// TestCaptureCanceled checks the capture pass honors cancellation.
func TestCaptureCanceled(t *testing.T) {
	prog, img := buildSliced(100, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Capture(ctx, prog, img); err == nil {
		t.Fatal("capture with canceled context succeeded")
	}
}
