package autoslice

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
)

// buildLoop builds the canonical parallel loop (Listing 1 shape) without
// any slice annotations: out[i] = f(in[i]) with a data-dependent branch.
func buildLoop(n int, seed uint64) (*isa.Program, []byte, uint64, []uint32) {
	rng := graph.NewRNG(seed)
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(rng.Next())
	}
	l := program.NewLayout()
	inB := l.AllocU32(n, in)
	outB := l.AllocU32(n, nil)

	b := program.NewBuilder("plainloop")
	rI, rN, rIn, rOut := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rX, rT, rY := b.Reg(), b.Reg(), b.Reg()
	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rIn, int64(inB))
	b.Li(rOut, int64(outB))
	b.Label("loop")
	b.Bge(rI, rN, "done")
	b.LdX32(rX, rIn, rI, 2)
	b.AndI(rT, rX, 1)
	b.Beq(rT, isa.R0, "even")
	b.MulI(rY, rX, 3)
	b.Jmp("store")
	b.Label("even")
	b.AddI(rY, rX, 7)
	b.Label("store")
	b.StX32(rOut, rI, 2, rY)
	b.AddI(rI, rI, 1)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.Build(), l.Image(), outB, in
}

func TestTransformFindsTheLoop(t *testing.T) {
	p, _, _, _ := buildLoop(16, 1)
	out, rep, err := Transform(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sliced) != 1 {
		t.Fatalf("sliced %d loops (rejected: %v)", len(rep.Sliced), rep.Rejected)
	}
	counts := map[isa.Op]int{}
	for _, in := range out.Code {
		counts[in.Op]++
	}
	if counts[isa.SliceStart] != 1 || counts[isa.SliceEnd] != 1 || counts[isa.SliceFence] != 1 {
		t.Fatalf("marker counts: %v", counts)
	}
}

func TestTransformPreservesSemantics(t *testing.T) {
	p, mem, outB, in := buildLoop(200, 2)
	out, _, err := Transform(p)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(out, mem)
	m.CheckIndependence = true // the §4.1 contract must hold dynamically
	if _, err := m.Run(0); err != nil {
		t.Fatalf("auto-sliced program violates the slice contract: %v", err)
	}
	for i, x := range in {
		want := x + 7
		if x&1 != 0 {
			want = x * 3
		}
		if got := program.ReadU32(mem, outB+uint64(i)*4); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestTransformedTimingBenefits(t *testing.T) {
	// The auto-annotated program should engage the selective-flush
	// machinery end to end.
	p, mem, _, _ := buildLoop(2000, 3)
	out, _, err := Transform(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Core.Recovery = core.PolicySpec{Kind: core.PolicySelective}
	res, err := sim.Run(cfg, &sim.Workload{Name: "auto", Progs: []*isa.Program{out}, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.SliceRecoveries == 0 {
		t.Fatal("auto-sliced program never recovered selectively")
	}
}

func TestRejectLoopCarriedDependence(t *testing.T) {
	// acc += in[i]: the accumulator is loop-carried through the body, so
	// the loop must be rejected (it would need a reduce annotation).
	l := program.NewLayout()
	inB := l.AllocU32(8, []uint32{1, 2, 3, 4, 5, 6, 7, 8})
	b := program.NewBuilder("reduceloop")
	rI, rN, rIn, rAcc, rX := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rI, 0)
	b.Li(rN, 8)
	b.Li(rIn, int64(inB))
	b.Li(rAcc, 0)
	b.Label("loop")
	b.LdX32(rX, rIn, rI, 2)
	b.Add(rAcc, rAcc, rX)
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "loop")
	b.St64(rIn, 0, rAcc)
	b.Halt()
	p := b.Build()
	out, rep, err := Transform(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sliced) != 0 {
		t.Fatalf("loop-carried reduction was sliced: %+v", rep.Sliced)
	}
	if len(rep.Rejected) == 0 {
		t.Fatal("no rejection reason recorded")
	}
	if fmt.Sprint(out.Code) != fmt.Sprint(p.Code) {
		t.Fatal("rejected transform still modified the code")
	}
}

func TestRejectEscapingBranch(t *testing.T) {
	// A break out of the loop body (to code past the back edge) makes
	// iterations control-dependent: reject.
	l := program.NewLayout()
	inB := l.AllocU32(8, []uint32{1, 2, 3, 0, 5, 6, 7, 8})
	b := program.NewBuilder("breakloop")
	rI, rN, rIn, rX := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rI, 0)
	b.Li(rN, 8)
	b.Li(rIn, int64(inB))
	b.Label("loop")
	b.LdX32(rX, rIn, rI, 2)
	b.Beq(rX, isa.R0, "out") // break
	b.StX32(rIn, rI, 2, rX)
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "loop")
	b.Label("out")
	b.Halt()
	_, rep, err := Transform(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sliced) != 0 {
		t.Fatal("escaping-branch loop was sliced")
	}
}

func TestAlreadyAnnotatedRejected(t *testing.T) {
	b := program.NewBuilder("pre")
	b.SliceStart(true)
	b.SliceEnd(true)
	b.SliceFence(true)
	b.Halt()
	if _, _, err := Transform(b.Build()); err == nil {
		t.Fatal("annotated input accepted")
	}
}

func TestNestedLoopsInnermostOnly(t *testing.T) {
	// A two-level nest where only the inner body is independent: the
	// pass must not try to slice the outer loop (nesting is illegal).
	l := program.NewLayout()
	buf := l.AllocU32(64, nil)
	b := program.NewBuilder("nest")
	rI, rJ, rN, rBuf, rT := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rBuf, int64(buf))
	b.Li(rN, 8)
	b.Li(rI, 0)
	b.Label("outer")
	b.Li(rJ, 0)
	b.Label("inner")
	b.Mul(rT, rI, rN)
	b.Add(rT, rT, rJ)
	b.StX32(rBuf, rT, 2, rJ)
	b.AddI(rJ, rJ, 1)
	b.Blt(rJ, rN, "inner")
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "outer")
	b.Halt()
	out, rep, err := Transform(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sliced) > 1 {
		t.Fatalf("sliced %d loops in a nest", len(rep.Sliced))
	}
	if err := isa.Validate(out); err != nil {
		t.Fatal(err)
	}
	m := emu.New(out, l.Image())
	m.CheckIndependence = true
	if _, err := m.Run(0); err != nil {
		t.Fatalf("nested transform broke the contract: %v", err)
	}
}
