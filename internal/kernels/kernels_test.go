package kernels

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/emu"
	"repro/internal/graph"
	"repro/internal/memo"
)

// modesFor returns every slice mode a kernel supports.
func modesFor(kernel string) []SliceMode {
	modes := []SliceMode{SliceNone, SliceOuter}
	if InnerSliceable(kernel) {
		modes = append(modes, SliceInner)
	}
	return modes
}

// runFunctional executes a workload on the functional emulator (no
// timing) with the slice-discipline checker on, and validates the output.
func runFunctional(t *testing.T, spec Spec) {
	t.Helper()
	w, err := Build(spec)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	machines := make([]*emu.Machine, len(w.Progs))
	for i, p := range w.Progs {
		machines[i] = emu.New(p, w.Mem)
		machines[i].CheckIndependence = true
	}
	if _, err := emu.RunAll(machines, 500_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := w.Check(w.Mem); err != nil {
		t.Fatalf("check: %v", err)
	}
}

func TestKernelsFunctionalSingleThread(t *testing.T) {
	for _, k := range Names {
		for _, m := range modesFor(k) {
			t.Run(k+"-"+m.String(), func(t *testing.T) {
				runFunctional(t, Spec{Kernel: k, Scale: 7, Mode: m})
			})
		}
	}
}

func TestKernelsFunctionalMultiThread(t *testing.T) {
	for _, k := range Names {
		for _, m := range modesFor(k) {
			t.Run(k+"-"+m.String(), func(t *testing.T) {
				runFunctional(t, Spec{Kernel: k, Scale: 7, Mode: m, Threads: 4})
			})
		}
	}
}

func TestKernelsDefaultScales(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale functional runs are slow")
	}
	for _, k := range Names {
		t.Run(k, func(t *testing.T) {
			runFunctional(t, Spec{Kernel: k, Mode: SliceOuter})
		})
	}
}

// Build builds afresh: two builds of one spec share neither the memory
// image nor the programs, so a run that mutates either leaves every other
// build as built.
func TestBuildIsFresh(t *testing.T) {
	spec := Spec{Kernel: "cc", Scale: 6}
	w1, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Mem, w2.Mem) {
		t.Fatal("two builds of one spec differ")
	}
	w1.Mem[0] ^= 0xFF
	w1.Progs[0].Code[0].Imm ^= 0xFF
	if w1.Mem[0] == w2.Mem[0] {
		t.Fatal("mutating one image leaked into the other")
	}
	if w1.Progs[0].Code[0] == w2.Progs[0].Code[0] {
		t.Fatal("mutating one build's program leaked into the other")
	}
}

// The kernels that read the same unweighted graph share one generated
// CSR at a given scale and seed, also when they build at once.
func TestGraphSharedAcrossKernels(t *testing.T) {
	kernels := []string{"bc", "cc", "pr"}
	got := make([]*graph.CSR, len(kernels))
	var wg sync.WaitGroup
	for i, k := range kernels {
		spec, err := Spec{Kernel: k, Scale: 6, Seed: 3}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = getGraph(spec, false)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Errorf("%s got its own graph", kernels[i])
		}
	}
}

// The graph memo is bounded: under a 1-byte budget a second distinct
// graph evicts the first.
func TestGraphMemoBounded(t *testing.T) {
	saved := graphs
	defer func() { graphs = saved }()
	graphs = memo.New(1, graphCost)
	for _, seed := range []uint64{1, 2} {
		getGraph(Spec{Scale: 6, Degree: 4, Seed: seed}, false)
	}
	if st := graphs.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 entry and 1 eviction", st)
	}
}

func TestInnerSliceRejected(t *testing.T) {
	for _, k := range []string{"bfs", "pr", "tc", "ms"} {
		if _, err := Build(Spec{Kernel: k, Scale: 6, Mode: SliceInner}); err == nil {
			t.Errorf("%s: inner slicing should be rejected", k)
		}
	}
}

// TestNormalizeRejectsNegative: a negative scale, degree or thread count
// used to reach the builders and panic on a negative shift or length, and
// pr's sweep loop runs at least once.
func TestNormalizeRejectsNegative(t *testing.T) {
	for _, s := range []Spec{
		{Kernel: "cc", Scale: -2},
		{Kernel: "cc", Degree: -4},
		{Kernel: "cc", Threads: -1},
		{Kernel: "pr", PRIters: -1},
	} {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}

func TestParseSliceMode(t *testing.T) {
	for _, m := range []SliceMode{SliceNone, SliceOuter, SliceInner} {
		if got, err := ParseSliceMode(m.String()); err != nil || got != m {
			t.Errorf("ParseSliceMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParseSliceMode(""); err != nil || got != SliceNone {
		t.Errorf(`ParseSliceMode("") = %v, %v; want none`, got, err)
	}
	if _, err := ParseSliceMode("sideways"); err == nil {
		t.Error("unknown mode accepted")
	}
}
