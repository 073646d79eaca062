package kernels

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
)

// buildPR constructs pull-based PageRank: per sweep, phase A computes
// per-vertex contributions score[v]/deg(v), phase B pulls neighbor
// contributions. Both parallel loops get outer slices; pr has no
// data-dependent conditional in its inner loop (§6.1), so the paper
// reports ≈no speedup for it — the floor case of Fig. 4.
func buildPR(spec Spec) *sim.Workload {
	g := getGraph(spec, false)
	n := g.N
	const damp = 0.85
	base := (1 - damp) / float64(n)

	l := program.NewLayout()
	offB := l.AllocU32(n+1, g.Offsets)
	neiB := l.AllocU32(len(g.Neigh), g.Neigh)
	init := make([]float64, n)
	for i := range init {
		init[i] = 1 / float64(n)
	}
	scoreB := l.AllocF64(n, init)
	contribB := l.AllocF64(n, nil)

	sliced := spec.Mode == SliceOuter
	progs := make([]*isa.Program, spec.Threads)
	for t := 0; t < spec.Threads; t++ {
		lo, hi := chunk(n, spec.Threads, t)
		b := program.NewBuilder(fmt.Sprintf("pr-t%d", t))
		rOff, rNei, rScore, rContrib := b.Reg(), b.Reg(), b.Reg(), b.Reg()
		rBase, rD := b.Reg(), b.Reg()
		rIter, rIters := b.Reg(), b.Reg()
		rV, rVEnd := b.Reg(), b.Reg()
		rE, rEEnd := b.Reg(), b.Reg()
		rW, rDeg, rSum, rT, rF := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()

		b.Li(rOff, int64(offB))
		b.Li(rNei, int64(neiB))
		b.Li(rScore, int64(scoreB))
		b.Li(rContrib, int64(contribB))
		b.LiF(rBase, base)
		b.LiF(rD, damp)
		b.Li(rIters, int64(spec.PRIters))
		b.Li(rIter, 0)
		b.Li(rVEnd, int64(hi))

		b.Label("sweep") // do-while: Normalize makes PRIters at least 1
		// Phase A: contrib[v] = score[v] / deg(v).
		b.Li(rV, int64(lo))
		b.Bge(rV, rVEnd, "phaseAdone")
		b.Label("phaseA")
		b.SliceStart(sliced)
		b.LdX32(rE, rOff, rV, 2)
		b.AddI(rT, rV, 1)
		b.LdX32(rEEnd, rOff, rT, 2)
		b.Sub(rDeg, rEEnd, rE)
		b.Beq(rDeg, isa.R0, "zeroDeg")
		b.LdX64(rSum, rScore, rV, 3)
		b.CvtIF(rDeg, rDeg)
		b.FDiv(rSum, rSum, rDeg)
		b.StX64(rContrib, rV, 3, rSum)
		b.Jmp("contribDone")
		b.Label("zeroDeg")
		b.StX64(rContrib, rV, 3, isa.R0) // 0 bits == 0.0
		b.Label("contribDone")
		b.SliceEnd(sliced)
		b.AddI(rV, rV, 1)
		b.Blt(rV, rVEnd, "phaseA")
		b.Label("phaseAdone")
		b.SliceFence(sliced)
		b.Barrier()

		// Phase B: score[v] = base + d * Σ contrib[w].
		b.Li(rV, int64(lo))
		b.Bge(rV, rVEnd, "phaseBdone")
		b.Label("phaseB")
		b.SliceStart(sliced)
		b.LdX32(rE, rOff, rV, 2)
		b.AddI(rT, rV, 1)
		b.LdX32(rEEnd, rOff, rT, 2)
		b.Li(rSum, 0) // 0.0
		b.Bge(rE, rEEnd, "pullDone")
		b.Label("pull")
		b.LdX32(rW, rNei, rE, 2)
		b.LdX64(rF, rContrib, rW, 3)
		b.FAdd(rSum, rSum, rF)
		b.AddI(rE, rE, 1)
		b.Blt(rE, rEEnd, "pull")
		b.Label("pullDone")
		b.FMul(rSum, rSum, rD)
		b.FAdd(rSum, rSum, rBase)
		b.StX64(rScore, rV, 3, rSum)
		b.SliceEnd(sliced)
		b.AddI(rV, rV, 1)
		b.Blt(rV, rVEnd, "phaseB")
		b.Label("phaseBdone")
		b.SliceFence(sliced)
		b.Barrier()

		b.AddI(rIter, rIter, 1)
		b.Blt(rIter, rIters, "sweep")
		b.Halt()
		progs[t] = b.Build()
	}

	want := refPR(g, spec.PRIters)
	return &sim.Workload{
		Name:  fmt.Sprintf("pr-s%d-%s", spec.Scale, spec.Mode),
		Progs: progs,
		Mem:   l.Image(),
		Check: func(mem []byte) error {
			for v := 0; v < n; v++ {
				got := program.ReadF64(mem, scoreB+uint64(v)*8)
				if math.Abs(got-want[v]) > 1e-12*math.Max(1, math.Abs(want[v])) {
					return fmt.Errorf("pr: score[%d] = %g, want %g", v, got, want[v])
				}
			}
			return nil
		},
	}
}
