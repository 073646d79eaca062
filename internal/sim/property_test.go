package sim

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/emu"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/program"
)

// genSlicedLoop generates a random parallel loop in the virtual ISA: each
// iteration is an independent slice that reads in[i], runs a random DAG of
// ALU operations with random data-dependent branches (all reconverging
// inside the slice), and writes out[i]. A reduce-prefixed accumulator sums
// a per-iteration value. This is the §4.1 software contract by
// construction, so baseline and every selective-flush configuration must
// produce identical final memory.
func genSlicedLoop(rng *graph.RNG, n int, sliced bool) (*Workload, uint64) {
	l := program.NewLayout()
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(rng.Next())
	}
	inB := l.AllocU32(n, in)
	outB := l.AllocU32(n, nil)
	accB := l.AllocU64(1, nil)

	b := program.NewBuilder("randloop")
	rI, rN, rIn, rOut, rAccA := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rAcc := b.Reg()
	rX, rY, rT := b.Reg(), b.Reg(), b.Reg()

	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rIn, int64(inB))
	b.Li(rOut, int64(outB))
	b.Li(rAccA, int64(accB))
	b.Li(rAcc, 0)
	b.Label("loop")
	b.Bge(rI, rN, "done")
	b.SliceStart(sliced)
	b.LdX32(rX, rIn, rI, 2)
	b.Mov(rY, rX)

	// Random body: a few blocks separated by data-dependent branches
	// that skip forward within the slice.
	blocks := 2 + int(rng.Next()%3)
	for bi := 0; bi < blocks; bi++ {
		label := fmt.Sprintf("blk%d", bi)
		b.AndI(rT, rX, 1<<(rng.Next()%8))
		if rng.Next()&1 == 0 {
			b.Beq(rT, isa.R0, label)
		} else {
			b.Bne(rT, isa.R0, label)
		}
		ops := 1 + int(rng.Next()%4)
		for o := 0; o < ops; o++ {
			switch rng.Next() % 5 {
			case 0:
				b.AddI(rY, rY, int64(rng.Next()%97))
			case 1:
				b.XorI(rY, rY, int64(rng.Next()%1024))
			case 2:
				b.MulI(rY, rY, int64(rng.Next()%7+1))
			case 3:
				b.ShrI(rY, rY, int64(rng.Next()%5))
			default:
				b.Add(rY, rY, rX)
			}
		}
		b.Label(label)
	}

	b.StX32(rOut, rI, 2, rY)
	if sliced {
		b.Reduce()
	}
	b.Add(rAcc, rAcc, rY)
	b.SliceEnd(sliced)
	b.AddI(rI, rI, 1)
	b.Jmp("loop")
	b.Label("done")
	b.SliceFence(sliced)
	b.St64(rAccA, 0, rAcc)
	b.Halt()

	return &Workload{
		Name:  "randloop",
		Progs: []*isa.Program{b.Build()},
		Mem:   l.Image(),
	}, accB
}

// TestRandomProgramEquivalence is the central whole-system invariant: for
// random sliced programs, the baseline core, the selective-flush core, a
// block-partitioned ROB, a tiny FRQ, a tiny reservation, and the oracle
// predictor all commit the same instruction count and produce bit-identical
// final memory.
func TestRandomProgramEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := graph.NewRNG(seed)
		n := 50 + int(rng.Next()%100)

		type variant struct {
			name   string
			sliced bool
			tweak  func(*Config)
		}
		variants := []variant{
			{"baseline", false, nil},
			{"sliced", true, nil},
			{"blocked8", true, func(c *Config) { c.Core.ROBBlockSize = 8 }},
			{"frq2", true, func(c *Config) { c.Core.FRQSize = 2 }},
			{"reserve1", true, func(c *Config) { c.Core.Reserve = 1 }},
			{"oracle", true, func(c *Config) { c.Core.Predictor = "oracle" }},
			{"wpmem", true, func(c *Config) { c.Core.WrongPathMemAccess = true }},
		}

		var refMem []byte
		var refCommit uint64
		for i, v := range variants {
			// Fresh workload per variant: memory is mutated in place.
			wrng := graph.NewRNG(seed)
			w, _ := genSlicedLoop(wrng, n, v.sliced)
			cfg := DefaultConfig()
			cfg.Core.Recovery = recovery(v.sliced)
			cfg.CheckIndependence = true
			cfg.MaxCycles = 100_000_000
			if v.tweak != nil {
				v.tweak(&cfg)
			}
			res, err := Run(cfg, w)
			if err != nil {
				t.Logf("seed %d variant %s: %v", seed, v.name, err)
				return false
			}
			if i == 0 {
				refMem = w.Mem
				refCommit = res.Total.Committed
				continue
			}
			if !bytes.Equal(refMem, w.Mem) {
				t.Logf("seed %d variant %s: memory diverged", seed, v.name)
				return false
			}
			if res.Total.Committed != refCommit {
				t.Logf("seed %d variant %s: committed %d != %d",
					seed, v.name, res.Total.Committed, refCommit)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRandomProgramFunctionalMatch: the timing simulator's final memory
// matches a pure functional run of the same program.
func TestRandomProgramFunctionalMatch(t *testing.T) {
	f := func(seed uint64) bool {
		rng := graph.NewRNG(seed)
		n := 30 + int(rng.Next()%60)

		wf, _ := genSlicedLoop(graph.NewRNG(seed), n, true)
		m := emu.New(wf.Progs[0], wf.Mem)
		if _, err := m.Run(0); err != nil {
			return false
		}

		wt, _ := genSlicedLoop(graph.NewRNG(seed), n, true)
		cfg := DefaultConfig()
		cfg.Core.Recovery = recovery(true)
		cfg.MaxCycles = 100_000_000
		if _, err := Run(cfg, wt); err != nil {
			return false
		}
		return bytes.Equal(wf.Mem, wt.Mem)
	}
	cfg := &quick.Config{MaxCount: 10}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicTiming: the simulator is cycle-deterministic.
func TestDeterministicTiming(t *testing.T) {
	run := func() int64 {
		w, _ := genSlicedLoop(graph.NewRNG(7), 120, true)
		cfg := DefaultConfig()
		cfg.Core.Recovery = recovery(true)
		res, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d cycles", a, b)
	}
}
