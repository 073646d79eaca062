package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Recovery policies are plain data. The paper's selective flush and the
// classic conventional full flush are the evaluated machines; partial:N
// and throttle:C are ablation rows that recover like conventional and
// differ from it in only two ways: when victims are released and how
// wide fetch is. NewCoreFrontends reads three properties from
// Config.Recovery once:
//
//	kind          selective path   squash depth     fetch-gate confidence
//	selective     on               0 (all at once)  0 (never gates)
//	conventional  off              0                0
//	partial:N     off              N                0
//	throttle:C    off              0                C
//
// The selective path (§4.2: miss segments, FRQ, reservation tiers)
// recovers in-slice misses; every other mispredicted correct-path branch
// goes through the one full-squash walk, resolveFull, which releases the
// squash-depth victims nearest the branch at resolution and drains the
// rest at that many per cycle (0 releases every victim at once). While a
// branch predicted below the gate confidence is unresolved, fetch narrows
// to one instruction per cycle.
//
// Every policy must leave the machine quiescent: CheckQuiescent and the
// uop conservation law hold at the end of every run, and the
// differential fuzz oracles (final memory ≡ emulator, exact commit
// counts, watchdog) apply unchanged.
const (
	PolicySelective    = "selective"
	PolicyConventional = "conventional"
	PolicyPartial      = "partial"
	PolicyThrottle     = "throttle"
)

// PolicySpec names a recovery policy and its parameters. Canonical
// spellings: "selective", "conventional", "partial:<depth>"
// ("partial:inf" for unbounded), "throttle:<conf>".
type PolicySpec struct {
	Kind string
	// Depth (partial only) is the number of victims squashed per cycle,
	// and equally the distance from the branch flushed at resolution;
	// 0 means unbounded (≡ conventional).
	Depth int
	// Conf (throttle only) is the confidence threshold in [0, 4]:
	// fetched branches predicted with confidence < Conf gate fetch to
	// one instruction per cycle until they resolve. 0 never gates
	// (≡ conventional); TAGE u-bits saturate at 3, so 4 gates on every
	// branch.
	Conf int
}

// ParsePolicy parses a policy string ("selective", "partial:16",
// "throttle:2", ...).
func ParsePolicy(s string) (PolicySpec, error) {
	kind, arg, hasArg := strings.Cut(s, ":")
	if hasArg && arg == "" {
		return PolicySpec{}, fmt.Errorf("core: recovery policy %q: empty parameter after ':'", s)
	}
	spec := PolicySpec{Kind: kind}
	var err error
	switch kind {
	case PolicySelective, PolicyConventional:
		if hasArg {
			err = fmt.Errorf("takes no parameter (got %q)", arg)
		}
	case PolicyPartial:
		if hasArg && arg != "inf" { // no depth or "inf": 0 = unbounded
			spec.Depth, err = strconv.Atoi(arg)
			if err != nil || spec.Depth < 0 {
				err = fmt.Errorf("depth must be a non-negative integer or \"inf\" (got %q)", arg)
			}
		}
	case PolicyThrottle:
		spec.Conf = 2
		if hasArg {
			spec.Conf, err = strconv.Atoi(arg)
			if err != nil || spec.Conf < 0 || spec.Conf > 4 {
				err = fmt.Errorf("confidence must be an integer in [0, 4] (got %q)", arg)
			}
		}
	default:
		return PolicySpec{}, fmt.Errorf("core: unknown recovery policy %q (kinds: %s)",
			s, strings.Join(RegisteredPolicies(), ", "))
	}
	if err != nil {
		return PolicySpec{}, fmt.Errorf("core: recovery policy %q: %w", s, err)
	}
	return spec, nil
}

// String returns the canonical spelling (ParsePolicy(p.String()) == p).
func (p PolicySpec) String() string {
	switch p.Kind {
	case PolicyPartial:
		if p.Depth <= 0 {
			return "partial:inf"
		}
		return fmt.Sprintf("partial:%d", p.Depth)
	case PolicyThrottle:
		return fmt.Sprintf("throttle:%d", p.Conf)
	}
	return p.Kind
}

// Validate checks the spec's kind and parameter ranges.
func (p PolicySpec) Validate() error {
	switch p.Kind {
	case PolicySelective, PolicyConventional:
		if p.Depth != 0 || p.Conf != 0 {
			return fmt.Errorf("core: recovery policy %q takes no parameters", p.Kind)
		}
	case PolicyPartial:
		if p.Depth < 0 {
			return fmt.Errorf("core: partial flush depth %d must be >= 0 (0 = unbounded)", p.Depth)
		}
		if p.Conf != 0 {
			return fmt.Errorf("core: partial takes no confidence parameter")
		}
	case PolicyThrottle:
		if p.Conf < 0 || p.Conf > 4 {
			return fmt.Errorf("core: throttle confidence %d out of range [0, 4]", p.Conf)
		}
		if p.Depth != 0 {
			return fmt.Errorf("core: throttle takes no depth parameter")
		}
	default:
		return fmt.Errorf("core: unknown recovery policy kind %q (kinds: %s)",
			p.Kind, strings.Join(RegisteredPolicies(), ", "))
	}
	return nil
}

// RegisteredPolicies returns the known policy kinds, sorted.
func RegisteredPolicies() []string {
	return []string{PolicyConventional, PolicyPartial, PolicySelective, PolicyThrottle}
}

// ConformanceMatrix returns representative parameterizations of every
// policy kind for a machine with the given ROB size — the rows of the
// differential conformance suite. partial:<robSize>, partial:inf and
// throttle:0 are degenerate twins of conventional: no recovery has more
// victims than the ROB has entries, and a threshold of 0 never gates.
func ConformanceMatrix(robSize int) []PolicySpec {
	return []PolicySpec{
		{Kind: PolicyConventional},
		{Kind: PolicyPartial, Depth: 1},
		{Kind: PolicyPartial, Depth: max(robSize/2, 2)},
		{Kind: PolicyPartial, Depth: robSize},
		{Kind: PolicyPartial},
		{Kind: PolicySelective},
		{Kind: PolicyThrottle, Conf: 0},
		{Kind: PolicyThrottle, Conf: 2},
		{Kind: PolicyThrottle, Conf: 4}, // gates on every unresolved branch
	}
}
