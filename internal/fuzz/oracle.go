package fuzz

import (
	"bytes"
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/sim"
)

// refBudget bounds the reference run; generated programs execute a few
// thousand dynamic instructions, so hitting this means the generator built
// an unintended long/infinite loop.
const refBudget = 2_000_000

// Violation is one oracle failure. Kind is stable across runs of the same
// case (the minimizer shrinks while preserving Kind); Detail is free-form
// diagnostics.
type Violation struct {
	Kind   string
	Detail string
}

func (v *Violation) Error() string { return v.Kind + ": " + v.Detail }

func violationf(kind, format string, args ...any) *Violation {
	return &Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// runRef executes the case on the architectural emulator (with the §4.1
// discipline checker on) and returns the final memory image and the number
// of instructions the pipeline is expected to commit (emu.RunAll's count).
func runRef(c *Case) ([]byte, uint64, error) {
	mem := append([]byte(nil), c.Mem...)
	ms := make([]*emu.Machine, len(c.Progs))
	for i, p := range c.Progs {
		ms[i] = emu.New(p, mem)
		ms[i].CheckIndependence = true
	}
	commits, err := emu.RunAll(ms, refBudget)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", c.Name, err)
	}
	return mem, commits, nil
}

// runSim runs one timing leg on a fresh copy of the case's memory,
// converting panics (the core panics on invariant breaks, by design) into
// errors so the fuzz loop survives them.
func runSim(c *Case, cfg sim.Config) (res *sim.Result, mem []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	mem = append([]byte(nil), c.Mem...)
	w := &sim.Workload{Name: c.Name, Progs: c.Progs, Mem: mem}
	res, err = sim.Run(cfg, w)
	return res, mem, err
}

// runLeg runs one timing leg through the per-leg oracles: the run
// finishes, its final memory equals refMem, and it commits exactly
// wantCommits instructions. key names the leg in violation kinds
// (key+"-run", "mem-"+key, "commit-"+key); label names the run in their
// details.
func runLeg(c *Case, key, label string, cfg sim.Config, refMem []byte, wantCommits uint64) (*sim.Result, *Violation) {
	res, mem, err := runSim(c, cfg)
	if err != nil {
		return nil, violationf(key+"-run", "%s: %v", label, err)
	}
	if !bytes.Equal(mem, refMem) {
		i := firstDiff(mem, refMem)
		return nil, violationf("mem-"+key,
			"%s: final memory diverges from reference at byte %#x (got %#x want %#x)",
			label, i, mem[i], refMem[i])
	}
	if res.Total.Committed != wantCommits {
		return nil, violationf("commit-"+key,
			"%s: committed %d instructions, reference executed %d (non-marker)",
			label, res.Total.Committed, wantCommits)
	}
	return res, nil
}

var (
	selectiveSpec    = core.PolicySpec{Kind: core.PolicySelective}
	conventionalSpec = core.PolicySpec{Kind: core.PolicyConventional}
)

// RunCase runs the full differential battery on one case and returns the
// first violation found (nil = clean):
//
//	ref       architectural emulator, independence checker on
//	sel       core sim, selective flush, event-driven stepping
//	ca        core sim, selective flush, forced cycle-accurate stepping
//	conv      core sim, conventional full flush
//	policy    when Cfg.Policy is set: the sampled recovery policy run
//	          event-driven and cycle-accurate (see RunPolicy)
//	oracle    core sim with the oracle predictor under conventional,
//	          partial:16 and throttle:2 (see runOraclePolicies)
//
// Oracles: every sim variant must finish (no watchdog hang, no panic, and
// — via the always-on quiescence check inside sim.Run — no leaked ROB/RS/
// LQ/SQ/FRQ entries and an exactly-balanced uop conservation law); every
// variant's final memory must equal the reference image; every variant
// must commit exactly the expected instruction count; the event-driven
// and cycle-accurate selective runs must produce byte-identical results;
// and the oracle-predictor runs must agree across policies.
func RunCase(c *Case) *Violation {
	refMem, wantCommits, err := runRef(c)
	if err != nil {
		return violationf("ref-fault", "%v", err)
	}

	legs := []struct {
		key        string
		spec       core.PolicySpec
		cycleAccur bool
	}{
		{"sel", selectiveSpec, false},
		{"ca", selectiveSpec, true},
		{"conv", conventionalSpec, false},
	}
	results := make(map[string]*sim.Result, len(legs))
	for _, l := range legs {
		res, v := runLeg(c, l.key, c.Name, c.Cfg.simConfig(l.spec, l.cycleAccur), refMem, wantCommits)
		if v != nil {
			return v
		}
		results[l.key] = res
	}

	// PR3's guarantee: the event-driven fast paths are result-invariant.
	if !reflect.DeepEqual(*results["sel"], *results["ca"]) {
		return violationf("ca-equiv",
			"%s: event-driven and cycle-accurate selective runs diverge: %s",
			c.Name, diffResults(results["sel"], results["ca"]))
	}

	// PR9's guarantee: every recovery policy passes the same oracles, and
	// the degenerate parameterizations are byte-identical to the legacy
	// legs.
	if c.Cfg.Policy != "" {
		if v := RunPolicy(c, refMem, wantCommits, results); v != nil {
			return v
		}
	}

	return runOraclePolicies(c, refMem, wantCommits)
}

// runOraclePolicies is the metamorphic leg, which needs no reference
// result: under a perfect predictor no branch mispredicts, so no recovery
// ever fires and the recovery policy cannot matter. It reruns the case
// with the oracle predictor under conventional, partial:16 and throttle:2
// (which never gates: the oracle predictor's confidence never falls below
// 2), through the per-leg oracles, and requires zero mispredicts, zero
// wrong-path dispatches and byte-identical results across the policies;
// a breach is an "oracle-policy" violation.
func runOraclePolicies(c *Case, refMem []byte, wantCommits uint64) *Violation {
	specs := []core.PolicySpec{
		conventionalSpec,
		{Kind: core.PolicyPartial, Depth: 16},
		{Kind: core.PolicyThrottle, Conf: 2},
	}
	oc := *c
	oc.Cfg.Predictor = "oracle"
	var first *sim.Result
	for _, spec := range specs {
		label := fmt.Sprintf("%s [oracle, %s]", c.Name, spec)
		res, v := runLeg(&oc, "oracle-policy", label, oc.Cfg.simConfig(spec, false), refMem, wantCommits)
		if v != nil {
			return v
		}
		if res.Total.Mispredicts != 0 || res.Total.DispWrong != 0 {
			return violationf("oracle-policy", "%s: %d mispredicts, %d wrong-path dispatches",
				label, res.Total.Mispredicts, res.Total.DispWrong)
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(*res, *first) {
			return violationf("oracle-policy", "%s diverges from %s: %s",
				label, specs[0], diffResults(res, first))
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// diffResults names the first differing field of two results (DeepEqual
// says only "not equal"; the fuzzer wants to say where).
func diffResults(a, b *sim.Result) string {
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	t := av.Type()
	for i := 0; i < t.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			return fmt.Sprintf("field %s: %v vs %v", t.Field(i).Name,
				av.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
	return "results differ (field-level diff found nothing?)"
}
