package kernels

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// runTimed pushes a workload through the full cycle-level simulator.
func runTimed(t *testing.T, spec Spec, tweak func(*sim.Config)) *sim.Result {
	t.Helper()
	w, err := Build(spec)
	if err != nil {
		t.Fatalf("build %s: %v", spec.Kernel, err)
	}
	cfg := sim.DefaultConfig()
	if spec.Mode != SliceNone {
		cfg.Core.Recovery = core.PolicySpec{Kind: core.PolicySelective}
	}
	cfg.CheckIndependence = true
	if tweak != nil {
		tweak(&cfg)
	}
	res, err := sim.Run(cfg, w)
	if err != nil {
		t.Fatalf("run %s (%s): %v", spec.Kernel, spec.Mode, err)
	}
	return res
}

// TestKernelsTimedBaselineVsSliced is the central integration test: every
// kernel runs through the cycle-level core in baseline and sliced form;
// outputs must validate, committed counts must match, and the sliced run
// must actually exercise the selective-flush machinery.
func TestKernelsTimedBaselineVsSliced(t *testing.T) {
	for _, k := range Names {
		k := k
		t.Run(k, func(t *testing.T) {
			spec := Spec{Kernel: k, Scale: 7}
			base := runTimed(t, spec, nil)
			spec.Mode = SliceOuter
			sel := runTimed(t, spec, nil)
			if base.Total.Committed != sel.Total.Committed {
				t.Errorf("committed differ: baseline %d vs sliced %d",
					base.Total.Committed, sel.Total.Committed)
			}
			if k != "pr" && sel.Total.SliceRecoveries == 0 {
				t.Errorf("no selective recoveries on %s", k)
			}
			speedup := float64(base.Cycles) / float64(sel.Cycles)
			t.Logf("%s: baseline=%d sliced=%d speedup=%.3f sliceRec=%d convRec=%d",
				k, base.Cycles, sel.Cycles, speedup,
				sel.Total.SliceRecoveries, sel.Total.ConvRecoveries)
		})
	}
}

// TestKernelsTimedInner exercises inner slicing on the kernels §6.1 allows.
func TestKernelsTimedInner(t *testing.T) {
	for _, k := range []string{"bc", "cc", "sssp"} {
		k := k
		t.Run(k, func(t *testing.T) {
			res := runTimed(t, Spec{Kernel: k, Scale: 7, Mode: SliceInner}, nil)
			if res.Total.SliceRecoveries == 0 {
				t.Errorf("no selective recoveries with inner slicing on %s", k)
			}
		})
	}
}

// TestKernelsTimedMulticore runs every kernel on 4 cores.
func TestKernelsTimedMulticore(t *testing.T) {
	for _, k := range Names {
		k := k
		t.Run(k, func(t *testing.T) {
			spec := Spec{Kernel: k, Scale: 7, Threads: 4, Mode: SliceOuter}
			res := runTimed(t, spec, func(c *sim.Config) {
				c.Cores = 4
				c.Mem = sim.ScaledMemConfig(4)
			})
			if res.Total.Committed == 0 {
				t.Fatal("nothing committed")
			}
		})
	}
}

// TestKernelsTimedSMT runs every kernel with 2 SMT threads on one core.
func TestKernelsTimedSMT(t *testing.T) {
	for _, k := range Names {
		k := k
		t.Run(k, func(t *testing.T) {
			spec := Spec{Kernel: k, Scale: 7, Threads: 2, Mode: SliceOuter}
			res := runTimed(t, spec, func(c *sim.Config) {
				c.Core.SMT = 2
			})
			if res.Total.Committed == 0 {
				t.Fatal("nothing committed")
			}
		})
	}
}

// TestKernelsTimedOracle: perfect prediction must beat TAGE on every
// branch-bound kernel.
func TestKernelsTimedOracle(t *testing.T) {
	for _, k := range Names {
		k := k
		t.Run(k, func(t *testing.T) {
			spec := Spec{Kernel: k, Scale: 7}
			base := runTimed(t, spec, nil)
			orc := runTimed(t, spec, func(c *sim.Config) { c.Core.Predictor = "oracle" })
			if orc.Total.Mispredicts != 0 {
				t.Fatalf("oracle mispredicted")
			}
			if orc.Cycles > base.Cycles {
				t.Errorf("oracle slower than TAGE: %d > %d", orc.Cycles, base.Cycles)
			}
		})
	}
}
