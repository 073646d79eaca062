package blp

// One benchmark per paper table/figure: each regenerates its experiment at
// a reduced input scale (quick sweeps) and reports the headline numbers as
// custom metrics, so `go test -bench=. -benchmem` reproduces the whole
// evaluation's shape in minutes. cmd/experiments runs the same harness at
// full default scales.

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
)

// benchDelta shrinks inputs for the benchmark harness; the full-scale
// figures come from cmd/experiments.
const benchDelta = -2

func reportFigure(b *testing.B, f *Figure, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := f.Values[k]; ok {
			b.ReportMetric(v, k)
		}
	}
	b.Logf("\n%s", f)
}

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := Table1()
		if i == 0 {
			b.Logf("\n%s", f)
		}
	}
}

func BenchmarkMotivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := NewRunner(0).Motivation(benchDelta)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "oracle/hmean")
		}
	}
}

func BenchmarkFig4SliceSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := NewRunner(0).Fig4(benchDelta)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "hmean", "hmeanNoPR", "hmeanPerfect", "best/ms")
		}
	}
}

func BenchmarkFig5CycleStacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := NewRunner(0).Fig5(benchDelta)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "ms/orig/branch", "ms/sliced/branch")
		}
	}
}

func BenchmarkFig6Dispatched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := NewRunner(0).Fig6(benchDelta)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "ms/orig/wrong", "ms/sliced/wrong", "sssp/overhead")
		}
	}
}

func BenchmarkFig7Reserve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := NewRunner(0).Fig7(benchDelta, []int{1, 8, 32})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "ms/r1", "ms/r8", "ms/r32")
		}
	}
}

func BenchmarkFig8Blocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := NewRunner(0).Fig8(benchDelta, []int{1, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "hmean/b1", "hmean/b8", "hmean/b16")
		}
	}
}

func BenchmarkFig9InputSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := NewRunner(0).Fig9(benchDelta - 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "ms/x1", "ms/x8")
		}
	}
}

func BenchmarkFig10Multicore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := NewRunner(0).Fig10(benchDelta, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "hmean/1c", "hmean/nc")
		}
	}
}

func BenchmarkFig11SMT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := NewRunner(0).Fig11(benchDelta)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "ms/smt2", "ms/smt2s", "ms/sliced")
		}
	}
}

// BenchmarkAblationWrongPathMemory quantifies the wrong-path memory-access
// modeling choice discussed in DESIGN.md: with exact-address wrong-path
// prefetching the oracle headroom shrinks.
func BenchmarkAblationWrongPathMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, wp := range []bool{false, true} {
			base, err := Run(Options{Benchmark: "bfs", Scale: scaled("bfs", benchDelta),
				WrongPathMemAccess: wp})
			if err != nil {
				b.Fatal(err)
			}
			orc, err := Run(Options{Benchmark: "bfs", Scale: scaled("bfs", benchDelta),
				WrongPathMemAccess: wp, Predictor: "oracle"})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(Speedup(base, orc), fmt.Sprintf("oracle(wpmem=%v)", wp))
			}
		}
	}
}

// BenchmarkSimThroughput measures raw simulator speed, which sets every
// experiment's cost, on pr two scales below its default, unsliced and in
// its best slice mode. ns/kinst is host nanoseconds per 1,000 committed
// instructions. The input graph is generated before the timer starts;
// each run still builds its workload from it.
func BenchmarkSimThroughput(b *testing.B) {
	const k = "pr"
	for _, mode := range []SliceMode{SliceNone, BestMode(k)} {
		b.Run(mode.String(), func(b *testing.B) {
			o := Options{Benchmark: k, Scale: scaled(k, benchDelta), Mode: mode}
			if _, err := kernels.Build(buildSpec(o.normalized())); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var cycles int64
			var committed uint64
			for i := 0; i < b.N; i++ {
				r, err := Run(o)
				if err != nil {
					b.Fatal(err)
				}
				cycles += r.Cycles
				committed += r.Stats.Committed
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(committed)/1000), "ns/kinst")
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
		})
	}
}
