package fuzz

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/sim"
)

// RunPolicy is the policy-equivalence oracle leg: it runs the case under
// the recovery policy named by c.Cfg.Policy, event-driven and forced
// cycle-accurate, and checks
//
//   - both runs finish (no watchdog hang, no panic, quiescent machine),
//   - both final memory images equal the reference image,
//   - both commit exactly the reference instruction count,
//   - the two stepping styles produce byte-identical results,
//   - a degenerate parameterization is byte-identical to its legacy leg:
//     "selective" to the sel leg, and "conventional", "partial:inf",
//     "partial:N" with N >= ROB size and "throttle:0" to the conv leg
//     (when legacy is non-nil).
//
// legacy is RunCase's results map ("sel"/"ca"/"conv"); pass nil to skip
// the identity checks (the conformance suite builds its own pairs).
func RunPolicy(c *Case, refMem []byte, wantCommits uint64, legacy map[string]*sim.Result) *Violation {
	spec, err := core.ParsePolicy(c.Cfg.Policy)
	if err != nil {
		return violationf("policy-parse", "%s: %v", c.Name, err)
	}

	label := fmt.Sprintf("%s [%s]", c.Name, spec)
	results := make(map[string]*sim.Result, 2)
	for _, l := range []struct {
		key        string
		cycleAccur bool
	}{
		{"policy", false},
		{"policy-ca", true},
	} {
		res, v := runLeg(c, l.key, label, c.Cfg.simConfig(spec, l.cycleAccur), refMem, wantCommits)
		if v != nil {
			return v
		}
		results[l.key] = res
	}

	if !reflect.DeepEqual(*results["policy"], *results["policy-ca"]) {
		return violationf("policy-ca-equiv",
			"%s [%s]: event-driven and cycle-accurate policy runs diverge: %s",
			c.Name, spec, diffResults(results["policy"], results["policy-ca"]))
	}

	if legacy != nil {
		if twin := degenerateTwin(spec, c.Cfg.ROBSize); twin != "" {
			if !reflect.DeepEqual(*results["policy"], *legacy[twin]) {
				return violationf("policy-identity",
					"%s: policy %s must be byte-identical to the %s leg: %s",
					c.Name, spec, twin, diffResults(results["policy"], legacy[twin]))
			}
		}
	}
	return nil
}

// degenerateTwin names the legacy leg a policy spec must be byte-identical
// to on a machine with the given ROB size, or "" when the spec is a
// genuinely new machine.
func degenerateTwin(spec core.PolicySpec, robSize int) string {
	switch {
	case spec.Kind == core.PolicySelective:
		return "sel"
	case spec.Kind == core.PolicyConventional:
		return "conv"
	case spec.Kind == core.PolicyPartial && (spec.Depth == 0 || spec.Depth >= robSize):
		// partial:inf releases everything at resolution, and so does
		// any depth of at least the ROB size: no recovery has more
		// victims than the ROB has entries.
		return "conv"
	case spec.Kind == core.PolicyThrottle && spec.Conf == 0:
		return "conv" // a threshold of 0 never gates fetch
	}
	return ""
}
