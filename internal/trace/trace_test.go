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
// capture in lockstep and requires identical DynInst streams, identical
// NextPC/Halted observations, and identical final memory.
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
		if r.NextPC() != m.PC {
			t.Fatalf("NextPC diverges: replay %d, machine %d", r.NextPC(), m.PC)
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
	if !r.Halted() || !r.Done() {
		t.Fatalf("machine halted but replay is not (halted=%v done=%v)", r.Halted(), r.Done())
	}
	if _, err := r.Step(); err == nil {
		t.Fatal("Step after halt should error")
	}
	if !bytes.Equal(repMem, liveMem) || !bytes.Equal(repMem, capMem) {
		t.Fatal("replayed memory image diverges from live execution")
	}
}

// TestReplayForkMatchesMachine drives machine and replay to the same
// in-slice branches and forks wrong-path engines from both, as the
// selective-flush recovery does, requiring identical wrong-path streams.
// (The core's segment-store tests cover the correct-path remainder.)
func TestReplayForkMatchesMachine(t *testing.T) {
	prog, img := buildSliced(100, 9)
	tr, err := Capture(context.Background(), prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(prog, append([]byte(nil), img...))
	r, err := NewReplay(tr, prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}

	forks := 0
	for !m.Halted {
		want, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d diverges", want.Seq)
		}
		if !want.IsBranch() || !want.InSlice {
			continue
		}
		// Pretend the branch mispredicted: fork wrong-path engines at
		// the direction it did not take.
		wrongPC := want.PC + 1
		if !want.Taken {
			wrongPC = int(want.Inst.Imm)
		}
		dir := func(pc int, in isa.Inst, actual bool) bool { return actual }
		ws := emu.AsFrontend(m).Fork(wrongPC, true, want.SliceID)
		gs := r.Fork(wrongPC, true, want.SliceID)
		for i := 0; i < 50; i++ {
			var wd, gd emu.DynInst
			wok := ws.StepInto(dir, &wd)
			gok := gs.StepInto(dir, &gd)
			if wok != gok || !reflect.DeepEqual(gd, wd) {
				t.Fatalf("wrong-path record %d diverges after branch #%d", i, want.Seq)
			}
			if !wok {
				break
			}
		}
		forks++
	}
	if forks == 0 {
		t.Fatal("test never exercised an in-slice branch")
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

// TestForkRecyclingIsolated forks twice from one frontend, live and
// replayed. Every Fork re-seeds the frontend's one wrong-path engine, so
// the second wrong path must not see the first one's buffered store: it
// loads the stored word and must read the architectural value. Each path
// exposes the value it loaded as the address of a dependent load.
func TestForkRecyclingIsolated(t *testing.T) {
	l := program.NewLayout()
	x := l.AllocU64(1, []uint64{7})
	b := program.NewBuilder("forkiso")
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
	prog, img := b.Build(), l.Image()

	tr, err := Capture(context.Background(), prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplay(tr, prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	frontends := []struct {
		name string
		fe   emu.Frontend
	}{
		{"live", emu.AsFrontend(emu.New(prog, append([]byte(nil), img...)))},
		{"replay", r},
	}
	dir := func(pc int, in isa.Inst, actual bool) bool { return actual }
	// loadedValue runs a wrong path n records and returns the address of
	// its last record: the value the path's previous load produced.
	loadedValue := func(wp emu.WrongPath, n int) uint64 {
		var d emu.DynInst
		for i := 0; i < n; i++ {
			if !wp.StepInto(dir, &d) {
				t.Fatalf("wrong path died at record %d", i)
			}
		}
		return d.Addr
	}
	for _, f := range frontends {
		var d emu.DynInst
		for i := 0; i < 2; i++ { // the two li: x's address and 99
			if err := f.fe.StepInto(&d); err != nil {
				t.Fatal(err)
			}
		}
		if got := loadedValue(f.fe.Fork(firstPC, false, 0), 3); got != 99 {
			t.Fatalf("%s: first wrong path read %d, want its own store 99", f.name, got)
		}
		if got := loadedValue(f.fe.Fork(secondPC, false, 0), 2); got != 7 {
			t.Fatalf("%s: second wrong path read %d, want the architectural 7", f.name, got)
		}
	}
}
