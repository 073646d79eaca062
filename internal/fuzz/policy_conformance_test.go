package fuzz

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// conformanceCases returns the corpus the policy matrix runs over: the
// committed scenario corpus under testdata/ (which includes every
// hand-built adversarial scenario, via TestExportCorpus) plus two
// generated storm shapes, so generated programs are represented too.
func conformanceCases(t *testing.T) []*Case {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files under testdata/")
	}
	var cases []*Case
	for _, f := range files {
		c, err := ReadCaseFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		cases = append(cases, c)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		cases = append(cases, Render(NewShape(seed, true)))
	}
	return cases
}

// TestPolicyConformance is the differential conformance suite: every
// recovery policy kind, at every representative parameterization
// (core.ConformanceMatrix), runs every corpus case and must produce the
// reference memory image and commit count under both stepping styles —
// and the degenerate parameterizations (selective, conventional,
// partial:<ROB>, partial:inf, throttle:0) must be byte-identical to the
// legacy selective/conventional legs.
func TestPolicyConformance(t *testing.T) {
	for _, c := range conformanceCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			refMem, wantCommits, err := runRef(c)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			legacy := make(map[string]*sim.Result, 2)
			for key, spec := range map[string]core.PolicySpec{"sel": selectiveSpec, "conv": conventionalSpec} {
				res, mem, err := runSim(c, c.Cfg.simConfig(spec, false))
				if err != nil {
					t.Fatalf("%s leg: %v", key, err)
				}
				if i := firstDiff(mem, refMem); i < len(refMem) {
					t.Fatalf("%s leg memory diverges at byte %#x", key, i)
				}
				legacy[key] = res
			}
			specs := core.ConformanceMatrix(c.Cfg.ROBSize)
			if len(specs) < len(core.RegisteredPolicies()) {
				t.Fatalf("conformance matrix has %d rows for %d registered policies",
					len(specs), len(core.RegisteredPolicies()))
			}
			for _, spec := range specs {
				spec := spec
				t.Run(spec.String(), func(t *testing.T) {
					cc := *c
					cc.Cfg.Policy = spec.String()
					if v := RunPolicy(&cc, refMem, wantCommits, legacy); v != nil {
						t.Fatalf("%v", v)
					}
				})
			}
		})
	}
}

// TestOraclePredictorPoliciesAgree runs RunCase's metamorphic
// oracle-policy leg over the corpus: under a perfect predictor,
// conventional, partial:16 and throttle:2 must produce byte-identical
// results with no mispredicts and no wrong-path dispatch.
func TestOraclePredictorPoliciesAgree(t *testing.T) {
	for _, c := range conformanceCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			refMem, wantCommits, err := runRef(c)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if v := runOraclePolicies(c, refMem, wantCommits); v != nil {
				t.Fatal(v)
			}
		})
	}
}

// TestPolicyFaultInjectionCaught extends the fault-attribution proof to
// the full-squash policies: with an injected recovery bug armed, the
// policy leg's oracles must catch it for conventional, partial, and
// throttle machines alike — the regression for faults that used to fire
// only on the selective path.
func TestPolicyFaultInjectionCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection sweep is slow")
	}
	modes := []struct {
		name string
		mode core.FaultMode
	}{
		{"skip-unlink", core.FaultSkipUnlink},
		{"leak-pending", core.FaultLeakPending},
	}
	policies := []string{"conventional", "partial:2", "throttle:4"}
	for _, m := range modes {
		for _, pol := range policies {
			m, pol := m, pol
			t.Run(fmt.Sprintf("%s/%s", m.name, pol), func(t *testing.T) {
				core.SetFaultInjection(m.mode)
				defer core.SetFaultInjection(core.FaultNone)
				const maxSamples = 200
				for seed := uint64(1); seed <= maxSamples; seed++ {
					c := Render(NewShape(seed, true))
					c.Cfg.Policy = pol
					refMem, wantCommits, err := runRef(c)
					if err != nil {
						t.Fatalf("seed %d: reference run: %v", seed, err)
					}
					if v := RunPolicy(c, refMem, wantCommits, nil); v != nil {
						t.Logf("%s under %s caught at seed %d: %s", m.name, pol, seed, v.Kind)
						return
					}
				}
				t.Fatalf("%s under %s: no violation within %d samples — the oracles are blind",
					m.name, pol, maxSamples)
			})
		}
	}
}
