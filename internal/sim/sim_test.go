package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/program"
)

// recovery maps a test's sliced/baseline switch onto the core's
// recovery policy: the paper's selective flush for sliced binaries, the
// default conventional full flush otherwise.
func recovery(sliced bool) core.PolicySpec {
	if sliced {
		return core.PolicySpec{Kind: core.PolicySelective}
	}
	return core.PolicySpec{Kind: core.PolicyConventional}
}

// buildOddEven constructs the canonical sliced loop of the paper's
// Listing 1: iterate over an array, and per element take a data-dependent
// branch (odd/even) that a predictor cannot learn. Returns the workload
// with per-element expected outputs checked against a host reference.
func buildOddEven(n int, sliced bool, seed uint64) *Workload {
	rng := graph.NewRNG(seed)
	a := make([]uint32, n)
	for i := range a {
		a[i] = uint32(rng.Next())
	}

	l := program.NewLayout()
	aBase := l.AllocU32(n, a)
	bBase := l.AllocU32(n, nil)

	b := program.NewBuilder("oddEven")
	rI, rN, rA, rB := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rX, rT, rY := b.Reg(), b.Reg(), b.Reg()
	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rA, int64(aBase))
	b.Li(rB, int64(bBase))
	b.Label("loop")
	b.Bge(rI, rN, "done")
	b.SliceStart(sliced)
	b.LdX32(rX, rA, rI, 2)
	b.AndI(rT, rX, 1)
	b.Beq(rT, isa.R0, "even")
	b.MulI(rY, rX, 3)
	b.StX32(rB, rI, 2, rY)
	b.Jmp("endif")
	b.Label("even")
	b.AddI(rY, rX, 7)
	b.StX32(rB, rI, 2, rY)
	b.Label("endif")
	b.SliceEnd(sliced)
	b.AddI(rI, rI, 1)
	b.Jmp("loop")
	b.Label("done")
	b.SliceFence(sliced)
	b.Halt()

	return &Workload{
		Name:  "oddEven",
		Progs: []*isa.Program{b.Build()},
		Mem:   l.Image(),
		Check: func(mem []byte) error {
			for i, x := range a {
				want := x + 7
				if x&1 != 0 {
					want = x * 3
				}
				got := program.ReadU32(mem, bBase+uint64(i)*4)
				if got != want {
					return fmt.Errorf("b[%d] = %d, want %d", i, got, want)
				}
			}
			return nil
		},
	}
}

func runOddEven(t *testing.T, sliced bool, tweak func(*Config)) *Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Core.Recovery = recovery(sliced)
	cfg.CheckIndependence = true
	cfg.MaxCycles = 50_000_000
	if tweak != nil {
		tweak(&cfg)
	}
	w := buildOddEven(2000, sliced, 42)
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatalf("run (sliced=%v): %v", sliced, err)
	}
	return res
}

func TestOddEvenBaseline(t *testing.T) {
	res := runOddEven(t, false, nil)
	if res.Total.Committed == 0 || res.Cycles == 0 {
		t.Fatalf("empty result: %+v", res.Total)
	}
	if res.Total.Mispredicts == 0 {
		t.Fatalf("expected mispredictions on random data, got none")
	}
	t.Logf("baseline: cycles=%d IPC=%.2f mispred=%d/%d wrongDisp=%d",
		res.Cycles, res.Total.IPC(), res.Total.Mispredicts, res.Total.Branches,
		res.Total.DispWrong)
}

func TestOddEvenSelectiveFlush(t *testing.T) {
	base := runOddEven(t, false, nil)
	sel := runOddEven(t, true, nil)

	if sel.Total.SliceRecoveries == 0 {
		t.Fatalf("selective flush never triggered: %+v", sel.Total)
	}
	// Both executions commit the same program (modulo slice markers,
	// which never commit).
	if base.Total.Committed != sel.Total.Committed {
		t.Fatalf("committed differ: baseline %d vs sliced %d",
			base.Total.Committed, sel.Total.Committed)
	}
	speedup := float64(base.Cycles) / float64(sel.Cycles)
	t.Logf("baseline=%d sliced=%d speedup=%.3f sliceRec=%d convRec=%d wrongDisp %d->%d overhead=%d",
		base.Cycles, sel.Cycles, speedup,
		sel.Total.SliceRecoveries, sel.Total.ConvRecoveries,
		base.Total.DispWrong, sel.Total.DispWrong, sel.Total.DispOverhead)
	if speedup < 1.0 {
		t.Errorf("selective flush slowed down the canonical loop: speedup=%.3f", speedup)
	}
}

func TestOddEvenOracle(t *testing.T) {
	base := runOddEven(t, false, nil)
	orc := runOddEven(t, false, func(c *Config) { c.Core.Predictor = "oracle" })
	if orc.Total.Mispredicts != 0 {
		t.Fatalf("oracle mispredicted %d times", orc.Total.Mispredicts)
	}
	if orc.Cycles >= base.Cycles {
		t.Errorf("oracle (%d cycles) not faster than TAGE baseline (%d)", orc.Cycles, base.Cycles)
	}
}

func TestOddEvenSMT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Core.SMT = 2
	cfg.MaxCycles = 50_000_000
	w1 := buildOddEven(600, false, 1)
	w2 := buildOddEven(600, false, 2)
	w := &Workload{
		Name:  "oddEven-smt2",
		Progs: []*isa.Program{w1.Progs[0], w2.Progs[0]},
		Mem:   w1.Mem,
	}
	// Thread 2 runs w2's program against w1's memory image: same a-array
	// layout, so it recomputes b from w1's inputs; skip output checks.
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatalf("smt run: %v", err)
	}
	if res.Total.Committed == 0 {
		t.Fatalf("no instructions committed")
	}
	t.Logf("smt2: cycles=%d committed=%d", res.Cycles, res.Total.Committed)
}

// TestRunRejectsNonPowerOfTwoLLC: three cores ask for a 48 KiB LLC of 96
// sets, which the cache model would round down to 64. Run must refuse
// before building anything, naming the level and its set count.
func TestRunRejectsNonPowerOfTwoLLC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 3
	cfg.Mem = ScaledMemConfig(3)
	w := buildOddEven(10, false, 1)
	w.Progs = []*isa.Program{w.Progs[0], w.Progs[0], w.Progs[0]}
	_, err := Run(cfg, w)
	if err == nil || !strings.Contains(err.Error(), "cache llc: 96 sets is not a power of two") {
		t.Fatalf("3-core run: %v", err)
	}
}

// TestConfigValidate: Config.Validate requires at least one core and
// passes the core's rules through (TestWatchdogConfig and
// TestRunRejectsNonPowerOfTwoLLC cover the watchdog and the hierarchy).
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	for name, mut := range map[string]func(*Config){
		"no cores":          func(c *Config) { c.Cores = 0 },
		"negative cores":    func(c *Config) { c.Cores = -1 },
		"unknown predictor": func(c *Config) { c.Core.Predictor = "tagee" },
	} {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCancelDuringIdleFastForward is the regression test for the
// cancellation-latency bug: with a long memory latency, nearly all
// simulated time is covered by idle fast-forward jumps, and a short run
// can finish in far fewer loop iterations than the counter-based
// cancellation poll's interval — so a canceled context was silently
// ignored. The fix polls before committing any jump at least as long as
// the poll interval.
func TestCancelDuringIdleFastForward(t *testing.T) {
	w := buildOddEven(6, false, 3)
	cfg := DefaultConfig()
	cfg.CheckIndependence = false
	// Every miss stalls for ~300k idle cycles — far more than the poll
	// interval, well under the watchdog — while the run takes only a few
	// dozen loop iterations end to end.
	cfg.Mem.Uncore.MemLatency = 300_000
	cfg.MaxCycles = 50_000_000

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	if _, err := Run(cfg, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run finished with err=%v; want context.Canceled", err)
	}

	// Sanity: the same configuration completes when not canceled.
	cfg.Ctx = context.Background()
	w2 := buildOddEven(6, false, 3)
	if _, err := Run(cfg, w2); err != nil {
		t.Fatalf("uncanceled control run failed: %v", err)
	}
}
