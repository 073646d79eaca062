package emu

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/program"
)

// genStraightLine builds a random straight-line program over every
// non-control opcode (the 30 register-computing ops, the 8 loads and
// stores and the 8 atomics), with memory accesses confined to a scratch
// buffer of words 8-byte words: plain forms take an in-range offset and
// indexed forms an in-range index loaded just before them.
func genStraightLine(rng *graph.RNG, scratch uint64, words int) *isa.Program {
	b := program.NewBuilder("straight")
	regs := b.Regs(9)
	rBase, rIdx := regs[0], regs[1]
	b.Li(rBase, int64(scratch))
	for _, r := range regs[2:] {
		b.Li(r, int64(rng.Next()%1024)+1)
	}
	pick := func() isa.Reg { return regs[2+int(rng.Next()%7)] }
	imm := func() int64 { return int64(rng.Next()%997) - 498 }
	off64 := func() int64 { return int64(rng.Next()%uint64(words)) * 8 }
	off32 := func() int64 { return int64(rng.Next()%uint64(2*words)) * 4 }
	idx64 := func() isa.Reg { b.Li(rIdx, int64(rng.Next()%uint64(words))); return rIdx }
	idx32 := func() isa.Reg { b.Li(rIdx, int64(rng.Next()%uint64(2*words))); return rIdx }
	n := 40 + int(rng.Next()%60)
	for i := 0; i < n; i++ {
		d, s1, s2 := pick(), pick(), pick()
		switch rng.Next() % 46 {
		case 0:
			b.Add(d, s1, s2)
		case 1:
			b.Sub(d, s1, s2)
		case 2:
			b.Mul(d, s1, s2)
		case 3:
			b.Div(d, s1, s2)
		case 4:
			b.Rem(d, s1, s2)
		case 5:
			b.And(d, s1, s2)
		case 6:
			b.Or(d, s1, s2)
		case 7:
			b.Xor(d, s1, s2)
		case 8:
			b.Shl(d, s1, s2)
		case 9:
			b.Shr(d, s1, s2)
		case 10:
			b.Sra(d, s1, s2)
		case 11:
			b.Min(d, s1, s2)
		case 12:
			b.Max(d, s1, s2)
		case 13:
			b.AddI(d, s1, imm())
		case 14:
			b.AndI(d, s1, imm())
		case 15:
			b.OrI(d, s1, imm())
		case 16:
			b.XorI(d, s1, imm())
		case 17:
			b.ShlI(d, s1, imm())
		case 18:
			b.ShrI(d, s1, imm())
		case 19:
			b.MulI(d, s1, imm())
		case 20:
			b.Li(d, int64(rng.Next()))
		case 21:
			b.Mov(d, s1)
		case 22:
			b.FAdd(d, s1, s2)
		case 23:
			b.FSub(d, s1, s2)
		case 24:
			b.FMul(d, s1, s2)
		case 25:
			b.FDiv(d, s1, s2)
		case 26:
			b.FAbs(d, s1)
		case 27:
			b.FMax(d, s1, s2)
		case 28:
			b.CvtIF(d, s1)
		case 29:
			b.CvtFI(d, s1)
		case 30:
			b.Ld64(d, rBase, off64())
		case 31:
			b.Ld32(d, rBase, off32())
		case 32:
			b.St64(rBase, off64(), s1)
		case 33:
			b.St32(rBase, off32(), s1)
		case 34:
			b.LdX64(d, rBase, idx64(), 3)
		case 35:
			b.LdX32(d, rBase, idx32(), 2)
		case 36:
			b.StX64(rBase, idx64(), 3, s1)
		case 37:
			b.StX32(rBase, idx32(), 2, s1)
		case 38:
			b.AAdd64(d, rBase, off64(), s1)
		case 39:
			b.AAdd32(d, rBase, off32(), s1)
		case 40:
			b.AAddX64(d, rBase, idx64(), 3, s1)
		case 41:
			b.AAddX32(d, rBase, idx32(), 2, s1)
		case 42:
			b.AMin64(d, rBase, off64(), s1)
		case 43:
			b.AMin32(d, rBase, off32(), s1)
		case 44:
			b.AMinX64(d, rBase, idx64(), 3, s1)
		case 45:
			b.AMinX32(d, rBase, idx32(), 2, s1)
		}
	}
	b.Halt()
	return b.Build()
}

// TestShadowMatchesMachine: for straight-line code, the shadow wrong-path
// engine computes exactly the machine's register results and observes the
// same memory values through its store log, while never mutating the
// architectural image.
func TestShadowMatchesMachine(t *testing.T) {
	seen := map[isa.Op]bool{}
	for seed := uint64(0); seed < 200; seed++ {
		for _, in := range genStraightLine(graph.NewRNG(seed), 0, 16).Code {
			seen[in.Op] = true
		}
	}
	for op := isa.Add; op < isa.Beq; op++ {
		if !seen[op] {
			t.Errorf("genStraightLine never emits %v", op)
		}
	}
	f := func(seed uint64) bool {
		rng := graph.NewRNG(seed)
		const words = 16
		l := program.NewLayout()
		scratch := l.AllocU64(words, nil)
		for i := 0; i < words; i++ {
			l.PutU64(scratch+uint64(i)*8, rng.Next()%4096)
		}
		p := genStraightLine(graph.NewRNG(seed+1), scratch, words)

		memM := append([]byte(nil), l.Image()...)
		memS := append([]byte(nil), l.Image()...)

		m := New(p, memM)
		if _, err := m.Run(0); err != nil {
			t.Logf("seed %d: machine: %v", seed, err)
			return false
		}

		ms := New(p, memS)
		s := forkShadow(ms, 0, false, 0)
		var d DynInst
		for !s.Dead() {
			if !s.StepInto(&d) {
				break
			}
		}
		// Architectural memory untouched by the shadow.
		for i := range memS {
			if memS[i] != l.Image()[i] {
				t.Logf("seed %d: shadow mutated memory", seed)
				return false
			}
		}
		// Register results identical.
		if s.regs != m.Regs {
			t.Logf("seed %d: registers diverge", seed)
			return false
		}
		// The shadow's store-log view of scratch equals the machine's
		// final memory.
		for i := 0; i < words; i++ {
			want, _ := isa.ReadWord(m.Mem, scratch+uint64(i)*8, 8)
			got, ok := s.load(scratch+uint64(i)*8, 8)
			if !ok || got != want {
				t.Logf("seed %d: store-log word %d: %d vs %d", seed, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestShadowBranchesFollowOwnOutcome: a wrong-path branch goes where the
// shadow's own register values send it, both ways.
func TestShadowBranchesFollowOwnOutcome(t *testing.T) {
	for _, v := range []int64{0, 5} {
		b := program.NewBuilder("own")
		r := b.Reg()
		b.Li(r, v)
		b.Beq(r, isa.R0, "taken")
		b.Li(r, 111)
		b.Halt()
		b.Label("taken")
		b.Li(r, 222)
		b.Halt()
		s := forkShadow(New(b.Build(), make([]byte, 64)), 0, false, 0)
		var d DynInst
		for s.StepInto(&d) {
		}
		want := uint64(111)
		if v == 0 {
			want = 222
		}
		if s.regs[r] != want {
			t.Fatalf("r = %d: shadow ended with %d, want %d", v, s.regs[r], want)
		}
	}
}
