package fuzz

import (
	"bytes"
	"context"
	"fmt"
	"reflect"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
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
// of instructions the pipeline is expected to commit: every dynamic
// instruction except slice markers and nops, which the core discards at
// dispatch.
func runRef(c *Case) ([]byte, uint64, error) {
	mem := append([]byte(nil), c.Mem...)
	ms := make([]*emu.Machine, len(c.Progs))
	for i, p := range c.Progs {
		m := emu.New(p, mem)
		m.CheckIndependence = true
		ms[i] = m
	}
	var commits, total uint64
	for {
		alive := false
		for _, m := range ms {
			if m.Halted {
				continue
			}
			alive = true
			for !m.Halted {
				d, err := m.Step()
				if err != nil {
					return nil, 0, err
				}
				if total++; total > refBudget {
					return nil, 0, fmt.Errorf("%s: reference budget %d exhausted", c.Name, refBudget)
				}
				op := d.Inst.Op
				if !op.IsSlice() && op != isa.Nop {
					commits++
				}
				if op == isa.Barrier {
					break
				}
			}
		}
		if !alive {
			return mem, commits, nil
		}
	}
}

// runSim runs one timing variant, converting panics (the core panics on
// invariant breaks, by design) into errors so the fuzz loop survives them.
func runSim(c *Case, selective, cycleAccurate bool) (res *sim.Result, mem []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	mem = append([]byte(nil), c.Mem...)
	w := &sim.Workload{Name: c.Name, Progs: c.Progs, Mem: mem}
	res, err = sim.Run(c.Cfg.simConfig(selective, cycleAccurate), w)
	return res, mem, err
}

// RunCase runs the full differential battery on one case and returns the
// first violation found (nil = clean):
//
//	ref       architectural emulator, independence checker on
//	sel       core sim, selective flush, event-driven stepping
//	ca        core sim, selective flush, forced cycle-accurate stepping
//	conv      core sim, conventional full flush
//	replay    core sim, selective flush, frontend fed from a captured
//	          trace (single-threaded cases only — replay's domain)
//	policy    when Cfg.Policy is set: the sampled recovery policy run
//	          event-driven and cycle-accurate (the sixth leg; see
//	          RunPolicy)
//
// Oracles: every sim variant must finish (no watchdog hang, no panic, and
// — via the always-on quiescence check inside sim.Run — no leaked ROB/RS/
// LQ/SQ/FRQ entries and an exactly-balanced uop conservation law); every
// variant's final memory must equal the reference image; every variant
// must commit exactly the expected instruction count; the event-driven
// and cycle-accurate selective runs must produce byte-identical results;
// and the replayed run must be byte-identical to the live selective run.
func RunCase(c *Case) *Violation {
	refMem, wantCommits, err := runRef(c)
	if err != nil {
		return violationf("ref-fault", "%v", err)
	}

	type variant struct {
		key        string
		selective  bool
		cycleAccur bool
	}
	variants := []variant{
		{"sel", true, false},
		{"ca", true, true},
		{"conv", false, false},
	}
	results := make(map[string]*sim.Result, len(variants))
	for _, vr := range variants {
		res, mem, err := runSim(c, vr.selective, vr.cycleAccur)
		if err != nil {
			return violationf(vr.key+"-run", "%s: %v", c.Name, err)
		}
		if !bytes.Equal(mem, refMem) {
			i := firstDiff(mem, refMem)
			return violationf("mem-"+vr.key,
				"%s: final memory diverges from reference at byte %#x (got %#x want %#x)",
				c.Name, i, mem[i], refMem[i])
		}
		if res.Total.Committed != wantCommits {
			return violationf("commit-"+vr.key,
				"%s: committed %d instructions, reference executed %d (non-marker)",
				c.Name, res.Total.Committed, wantCommits)
		}
		results[vr.key] = res
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

	// PR6's guarantee: a trace-replayed run is indistinguishable from a
	// live-emulated one. Single-threaded cases only (replay's domain).
	if len(c.Progs) == 1 {
		capMem := append([]byte(nil), c.Mem...)
		tr, err := trace.Capture(context.Background(), c.Progs[0], capMem)
		if err != nil {
			return violationf("capture-fault", "%s: %v", c.Name, err)
		}
		if !bytes.Equal(capMem, refMem) {
			i := firstDiff(capMem, refMem)
			return violationf("mem-capture",
				"%s: capture's final memory diverges from reference at byte %#x (got %#x want %#x)",
				c.Name, i, capMem[i], refMem[i])
		}
		res, mem, err := runReplay(c, tr)
		if err != nil {
			return violationf("replay-run", "%s: %v", c.Name, err)
		}
		if !bytes.Equal(mem, refMem) {
			i := firstDiff(mem, refMem)
			return violationf("mem-replay",
				"%s: replayed final memory diverges from reference at byte %#x (got %#x want %#x)",
				c.Name, i, mem[i], refMem[i])
		}
		if !reflect.DeepEqual(*res, *results["sel"]) {
			return violationf("replay-equiv",
				"%s: replayed and live selective runs diverge: %s",
				c.Name, diffResults(res, results["sel"]))
		}
	}
	return nil
}

// runReplay is runSim for the trace-fed variant: selective flush,
// event-driven stepping, frontend replaying tr. The independence checker
// must be off — it observes the live emulator, which a replayed run does
// not have (and checking happened in runRef and the live legs anyway).
func runReplay(c *Case, tr *trace.Trace) (res *sim.Result, mem []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	mem = append([]byte(nil), c.Mem...)
	w := &sim.Workload{Name: c.Name, Progs: c.Progs, Mem: mem}
	cfg := c.Cfg.simConfig(true, false)
	cfg.CheckIndependence = false
	cfg.Replay = tr
	res, err = sim.Run(cfg, w)
	return res, mem, err
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
