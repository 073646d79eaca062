// Customkernel: write your own workload in the virtual ISA with the
// builder DSL, annotate it with slice instructions (the paper's Listing 1
// pattern), and run it through both cores — the workflow a programmer
// would follow to adopt the mechanism.
//
//	go run ./examples/customkernel
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
)

// build assembles a histogram kernel: for each input element, a chain of
// data-dependent range checks (unpredictable branches) selects a bucket,
// and a reduce-prefixed counter tracks a checksum. Each iteration is
// independent: a textbook slice.
func build(n int, sliced bool) (*sim.Workload, uint64) {
	rng := graph.NewRNG(2026)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(rng.Next() % 1000)
	}

	l := program.NewLayout()
	inB := l.AllocU32(n, vals)
	bucketB := l.AllocU32(n, nil)
	sumB := l.AllocU64(1, nil)

	b := program.NewBuilder("histogram")
	rI, rN, rIn, rBk, rSumA := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rX, rB, rT, rSum := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rIn, int64(inB))
	b.Li(rBk, int64(bucketB))
	b.Li(rSumA, int64(sumB))
	b.Li(rSum, 0)

	b.Label("loop")
	b.Bge(rI, rN, "done")
	b.SliceStart(sliced) // iteration body = one slice (Listing 1)
	b.LdX32(rX, rIn, rI, 2)
	b.Li(rB, 0)
	// Unbalanced, data-dependent bucket selection.
	for i, bound := range []int64{50, 200, 450, 800} {
		b.Li(rT, bound)
		b.Bltu(rX, rT, "bucketed")
		b.Li(rB, int64(i+1))
	}
	b.Label("bucketed")
	b.StX32(rBk, rI, 2, rB)
	if sliced {
		b.Reduce() // §4.5: commutative update, executes at ROB head
	}
	b.Add(rSum, rSum, rX)
	b.SliceEnd(sliced)
	b.AddI(rI, rI, 1)
	b.Jmp("loop")
	b.Label("done")
	b.SliceFence(sliced) // region ends: later code may read the buckets
	b.St64(rSumA, 0, rSum)
	b.Halt()

	want := uint64(0)
	for _, v := range vals {
		want += uint64(v)
	}
	return &sim.Workload{
		Name:  "histogram",
		Progs: []*isa.Program{b.Build()},
		Mem:   l.Image(),
		Check: func(mem []byte) error {
			if got := program.ReadU64(mem, sumB); got != want {
				return fmt.Errorf("checksum %d, want %d", got, want)
			}
			return nil
		},
	}, sumB
}

func main() {
	const n = 20000

	// First prove the annotation respects the §4.1 contract: the
	// emulator's independence checker validates every slice.
	w, _ := build(n, true)
	m := emu.New(w.Progs[0], w.Mem)
	m.CheckIndependence = true
	if _, err := m.Run(0); err != nil {
		log.Fatalf("slice contract violated: %v", err)
	}
	fmt.Println("slice independence contract: OK (checked dynamically)")

	cycles := map[bool]int64{}
	for _, sliced := range []bool{false, true} {
		w, _ := build(n, sliced)
		cfg := sim.DefaultConfig()
		if sliced {
			cfg.Core.Recovery = core.PolicySpec{Kind: core.PolicySelective}
		}
		res, err := sim.Run(cfg, w)
		if err != nil {
			log.Fatal(err)
		}
		cycles[sliced] = res.Cycles
		tag := "baseline"
		if sliced {
			tag = "sliced  "
		}
		fmt.Printf("%s: %9d cycles, IPC %.2f, %d selective recoveries\n",
			tag, res.Cycles, res.Total.IPC(), res.Total.SliceRecoveries)
	}
	fmt.Printf("\nspeedup: %.3fx\n", float64(cycles[false])/float64(cycles[true]))
}
