// Autoslice: the paper's future-work direction (§7) — automatic insertion
// of slice instructions by the compiler. This example writes a plain
// (unannotated) parallel loop, lets the static pass find and annotate it,
// validates the §4.1 contract dynamically, and compares baseline vs
// auto-sliced timing.
//
//	go run ./examples/autoslice
package main

import (
	"fmt"
	"log"

	"repro/internal/autoslice"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
)

func buildPlain(n int) (*isa.Program, func() []byte) {
	rng := graph.NewRNG(77)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(rng.Next())
	}
	build := func() []byte {
		l := program.NewLayout()
		l.AllocU32(n, vals)
		l.AllocU32(n, nil)
		return l.Image()
	}
	l := program.NewLayout()
	inB := l.AllocU32(n, vals)
	outB := l.AllocU32(n, nil)

	b := program.NewBuilder("plain")
	rI, rN, rIn, rOut := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rX, rT, rY := b.Reg(), b.Reg(), b.Reg()
	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rIn, int64(inB))
	b.Li(rOut, int64(outB))
	b.Label("loop")
	b.Bge(rI, rN, "done")
	b.LdX32(rX, rIn, rI, 2)
	b.AndI(rT, rX, 3)
	b.Beq(rT, isa.R0, "skip")
	b.MulI(rY, rX, 5)
	b.XorI(rY, rY, 0x2a)
	b.StX32(rOut, rI, 2, rY)
	b.Label("skip")
	b.AddI(rI, rI, 1)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.Build(), build
}

func main() {
	const n = 30000
	plain, mem := buildPlain(n)

	annotated, rep, err := autoslice.Transform(plain)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("autoslice: %d loop(s) sliced, %d rejected\n", len(rep.Sliced), len(rep.Rejected))
	for _, lp := range rep.Sliced {
		fmt.Printf("  loop head @%d: slice [%d,%d), fence @%d\n",
			lp.Head, lp.SliceStart, lp.SliceEnd, lp.Exit)
	}

	// Dynamic validation of the §4.1 contract the pass claims.
	m := emu.New(annotated, mem())
	m.CheckIndependence = true
	if _, err := m.Run(0); err != nil {
		log.Fatalf("contract violated: %v", err)
	}
	fmt.Println("slice contract: validated dynamically")

	run := func(p *isa.Program, selective bool) int64 {
		cfg := sim.DefaultConfig()
		if selective {
			cfg.Core.Recovery = core.PolicySpec{Kind: core.PolicySelective}
		}
		res, err := sim.Run(cfg, &sim.Workload{Name: p.Name,
			Progs: []*isa.Program{p}, Mem: mem()})
		if err != nil {
			log.Fatal(err)
		}
		return res.Cycles
	}
	base := run(plain, false)
	auto := run(annotated, true)
	fmt.Printf("\nbaseline:    %d cycles\nauto-sliced: %d cycles\nspeedup:     %.3fx\n",
		base, auto, float64(base)/float64(auto))
}
