package kernels

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/flight"
	"repro/internal/sim"
)

// equivConfigs exercises the shapes where issue-order and idle-skip bugs
// would hide: single core, multi-core with barriers, and SMT sharing one
// core's age space (where issue-age ties between threads are common).
func equivConfigs(kernel string) []struct {
	name       string
	cores, smt int
} {
	cfgs := []struct {
		name       string
		cores, smt int
	}{{"1c", 1, 1}}
	switch kernel {
	case "cc", "pr":
		cfgs = append(cfgs, struct {
			name       string
			cores, smt int
		}{"2c", 2, 1})
	case "ms", "bfs":
		cfgs = append(cfgs, struct {
			name       string
			cores, smt int
		}{"smt2", 1, 2})
	}
	return cfgs
}

// TestEventDrivenEquivalence pins the tentpole invariant: the wakeup-driven
// issue path plus the driver's idle fast-forward must reproduce the legacy
// cycle-accurate loop (Config.ForceCycleAccurate) bit for bit — the whole
// Result including cycle counts and the float cycle stacks, the final
// memory image, and the flight recorder's timeline CSV (whose fixed-
// interval samples must not be skipped or displaced by fast-forward).
func TestEventDrivenEquivalence(t *testing.T) {
	for _, k := range Names {
		for _, shape := range equivConfigs(k) {
			t.Run(k+"/"+shape.name, func(t *testing.T) {
				spec := Spec{
					Kernel:  k,
					Scale:   7,
					Mode:    SliceOuter,
					Threads: shape.cores * shape.smt,
				}
				run := func(force bool) (*sim.Result, []byte, string) {
					w, err := Build(spec)
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					rec := &flight.Recorder{Interval: 64}
					cfg := sim.DefaultConfig()
					cfg.Cores = shape.cores
					cfg.Core.SMT = shape.smt
					cfg.Mem = sim.ScaledMemConfig(shape.cores)
					cfg.Core.ForceCycleAccurate = force
					cfg.Core.Recorder = rec
					res, err := sim.Run(cfg, w)
					if err != nil {
						t.Fatalf("run(force=%v): %v", force, err)
					}
					var csv bytes.Buffer
					if err := rec.WriteTimelineCSV(&csv); err != nil {
						t.Fatalf("timeline csv: %v", err)
					}
					return res, w.Mem, csv.String()
				}

				ref, refMem, refCSV := run(true)
				got, gotMem, gotCSV := run(false)

				if !reflect.DeepEqual(ref, got) {
					t.Errorf("results diverge:\ncycle-accurate: %+v\nevent-driven:   %+v", ref, got)
				}
				if !bytes.Equal(refMem, gotMem) {
					t.Error("final memory images diverge")
				}
				if refCSV != gotCSV {
					t.Errorf("timeline CSVs diverge:\ncycle-accurate:\n%s\nevent-driven:\n%s", refCSV, gotCSV)
				}
			})
		}
	}
}
