package blp

import (
	"testing"

	"repro/internal/stats"
)

func TestRunSmall(t *testing.T) {
	base, err := Run(Options{Benchmark: "cc", Scale: 7, CheckIndependence: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles == 0 || base.IPC <= 0 {
		t.Fatalf("empty result: %+v", base)
	}
	sl, err := Run(Options{Benchmark: "cc", Scale: 7, Mode: SliceOuter, CheckIndependence: true})
	if err != nil {
		t.Fatal(err)
	}
	if sl.Stats.SliceRecoveries == 0 {
		t.Fatal("selective flush never engaged")
	}
	if base.Stats.Committed != sl.Stats.Committed {
		t.Fatalf("committed mismatch: %d vs %d", base.Stats.Committed, sl.Stats.Committed)
	}
	if s := Speedup(base, sl); s <= 0 {
		t.Fatalf("speedup %f", s)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Options{Benchmark: "nope"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Run(Options{Benchmark: "bfs", Mode: SliceInner}); err == nil {
		t.Fatal("inner slicing on bfs accepted (§6.1 forbids)")
	}
}

// TestBadOptionsFailBeforeBuild: every option no simulation can run is
// answered by Validate, so Run and a Runner return its error without
// building a workload: nothing panics, and the Runner simulates nothing.
func TestBadOptionsFailBeforeBuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"unknown predictor", Options{Predictor: "tagee"}},
		{"negative cores", Options{Cores: -1}},
		{"negative scale", Options{Scale: -2}},
		{"negative degree", Options{Degree: -4}},
		{"smt 3", Options{SMT: 3}},
		{"zero reserve under slicing", Options{Mode: SliceOuter, Reserve: Zero}},
		{"zero ROB block", Options{ROBBlockSize: Zero}},
		{"reserve above the RS", Options{Reserve: 500}},
		{"negative watchdog", Options{WatchdogCycles: -1}},
		{"inner slicing on bfs", Options{Benchmark: "bfs", Mode: SliceInner}},
		{"reserve below Zero", Options{Reserve: -2}},
		{"3 cores", Options{Cores: 3}},
	} {
		o := tc.o
		if o.Benchmark == "" {
			o.Benchmark = "cc"
		}
		if o.Scale == 0 {
			o.Scale = 6
		}
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		r := NewRunner(1)
		for _, run := range []struct {
			name string
			f    func() (*Result, error)
		}{
			{"Run", func() (*Result, error) { return Run(o) }},
			{"Runner", func() (*Result, error) { return r.Run(o) }},
		} {
			if p, err := catchPanic(run.f); p != nil {
				t.Errorf("%s: %s panicked: %v", tc.name, run.name, p)
			} else if err == nil {
				t.Errorf("%s: %s accepted it", tc.name, run.name)
			}
		}
		if n := r.Stats().Simulated; n != 0 {
			t.Errorf("%s: the Runner simulated %d runs", tc.name, n)
		}
	}
}

// catchPanic runs f, returning the value it panicked with, or its error.
func catchPanic(f func() (*Result, error)) (p any, err error) {
	defer func() { p = recover() }()
	_, err = f()
	return nil, err
}

func TestBestMode(t *testing.T) {
	// The measured-best placements of this reproduction's Fig. 4 (the
	// paper's own "test a few options" prescription; see experiments.go
	// for where they differ from the paper's picks).
	if BestMode("sssp") != SliceInner || BestMode("bc") != SliceInner {
		t.Fatal("sssp/bc best mode should be inner")
	}
	if BestMode("cc") != SliceOuter || BestMode("ms") != SliceOuter {
		t.Fatal("cc/ms best mode should be outer")
	}
}

func TestBenchmarksComplete(t *testing.T) {
	want := map[string]bool{"bc": true, "bfs": true, "cc": true, "pr": true,
		"sssp": true, "tc": true, "ms": true}
	if len(Benchmarks) != len(want) {
		t.Fatalf("benchmarks = %v", Benchmarks)
	}
	for _, b := range Benchmarks {
		if !want[b] {
			t.Fatalf("unexpected benchmark %q", b)
		}
		if DefaultScale(b) < 6 {
			t.Fatalf("%s default scale %d", b, DefaultScale(b))
		}
	}
}

func TestTable1Renders(t *testing.T) {
	f := Table1()
	if f.Table == nil || f.ID != "table1" {
		t.Fatal("table1 malformed")
	}
	if len(f.String()) < 100 {
		t.Fatal("table1 suspiciously short")
	}
}

// TestFigureIDs pins the names both front ends accept for a figure.
func TestFigureIDs(t *testing.T) {
	for name, want := range map[string]string{
		"table1": "table1", "1": "table1", "motivation": "motivation", "3": "motivation",
		"4": "4", "fig4": "4", "fig10": "10", "policy": "policy",
	} {
		if id, ok := FigureID(name); !ok || id != want {
			t.Errorf("FigureID(%q) = %q, %v; want %q", name, id, ok, want)
		}
	}
	for _, name := range []string{"", "fig", "2", "12", "nope"} {
		if id, ok := FigureID(name); ok {
			t.Errorf("FigureID(%q) = %q, want unknown", name, id)
		}
	}
	if _, err := NewRunner(1).Figure("nope", DefaultFigureParams()); err == nil {
		t.Error("Figure(nope) did not fail")
	}
	f, err := NewRunner(1).Figure("1", DefaultFigureParams())
	if err != nil || f.ID != "table1" {
		t.Fatalf("Figure(1) = %v, %v", f, err)
	}
}

// TestFigureHarnessTiny runs the lightest figure end-to-end at a small
// scale to keep the experiment plumbing covered by `go test`.
func TestFigureHarnessTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	f, err := NewRunner(0).Fig7(-6, []int{8}) // tiny inputs (scales clamp at 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Values) == 0 {
		t.Fatal("no values recorded")
	}
	for k, v := range f.Values {
		if v <= 0 {
			t.Fatalf("non-positive speedup %s=%f", k, v)
		}
	}
}

func TestScaledClamp(t *testing.T) {
	if s := scaled("ms", -100); s != 6 {
		t.Fatalf("scale clamp = %d", s)
	}
	_ = stats.HarmonicMeanSpeedup // keep the dependency explicit
}
