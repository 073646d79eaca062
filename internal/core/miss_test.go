package core

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/flight"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/rob"
	"repro/internal/uncore"
)

// runCore runs prog to completion on one single-thread core with a small
// cache hierarchy, calling each (when non-nil) after every cycle, and
// requires the finished core to be quiescent.
func runCore(t *testing.T, cfg Config, prog *isa.Program, mem []byte, each func(*Core)) *Core {
	t.Helper()
	llc, dram := uncore.Build(uncore.Config{LLCPerCore: 16 << 10, LLCWays: 8,
		LLCLatency: 30, MemLatency: 150, MemBytesPerCycle: 8})
	hier := cache.NewHierarchy(cache.HierConfig{
		L1I: cache.Config{Name: "l1i", SizeBytes: 8 << 10, HitLatency: 1},
		L1D: cache.Config{Name: "l1d", SizeBytes: 4 << 10, HitLatency: 4},
		L2:  cache.Config{Name: "l2", SizeBytes: 8 << 10, HitLatency: 14},
	}, llc, dram)
	c, err := NewCore(0, cfg, hier, []*emu.Machine{emu.New(prog, mem)})
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(1); !c.Done(); now++ {
		if now > 5_000_000 {
			t.Fatalf("core did not finish:\n%s", c.DumpState())
		}
		c.Cycle(now)
		if each != nil {
			each(c)
		}
	}
	if err := c.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	return c
}

// twoBranchSlice builds a sliced loop over n pseudo-random words whose
// slice holds two data-dependent branches, so misses on the first one
// carry the second inside their correct-path segment (nested misses).
func twoBranchSlice(n int) (*isa.Program, []byte) {
	a := make([]uint32, n)
	x := uint32(12345)
	for i := range a {
		x = x*1103515245 + 12345
		a[i] = x >> 8
	}
	l := program.NewLayout()
	aBase := l.AllocU32(n, a)
	bBase := l.AllocU32(n, nil)

	b := program.NewBuilder("twoBranchSlice")
	rI, rN, rA, rB := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rX, rT, rY := b.Reg(), b.Reg(), b.Reg()
	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rA, int64(aBase))
	b.Li(rB, int64(bBase))
	b.Label("loop")
	b.Bge(rI, rN, "done")
	b.SliceStart(true)
	b.LdX32(rX, rA, rI, 2)
	b.AndI(rT, rX, 1)
	b.Beq(rT, isa.R0, "even")
	b.MulI(rY, rX, 3)
	b.Jmp("second")
	b.Label("even")
	b.AddI(rY, rX, 7)
	b.Label("second")
	b.AndI(rT, rX, 2)
	b.Beq(rT, isa.R0, "store")
	b.AddI(rY, rY, 1)
	b.Label("store")
	b.StX32(rB, rI, 2, rY)
	b.SliceEnd(true)
	b.AddI(rI, rI, 1)
	b.Jmp("loop")
	b.Label("done")
	b.SliceFence(true)
	b.Halt()
	return b.Build(), l.Image()
}

func selectiveConfig() Config {
	cfg := DefaultConfig()
	cfg.Recovery = PolicySpec{Kind: PolicySelective}
	return cfg
}

// TestSampleHolesExact checks the timeline's Holes column after every
// cycle against a recount from the ROB itself: a resolved miss whose
// correct path has not fully entered the ROB has exactly one splice
// cursor (the uop whose spliceHold is set) linked in the ROB. The
// per-cycle invariant checks run too, so the miss table's program order
// is checked with nested misses in it.
func TestSampleHolesExact(t *testing.T) {
	EnableDebugChecks(true)
	defer EnableDebugChecks(false)
	prog, mem := twoBranchSlice(600)
	var sampled, withHoles int
	c := runCore(t, selectiveConfig(), prog, mem, func(c *Core) {
		want := 0
		for _, th := range c.threads {
			th.list.Walk(func(n *rob.Node[*uop]) bool {
				if n.Val.spliceHold != nil {
					want++
				}
				return true
			})
		}
		var s flight.Sample
		c.Sample(&s)
		if s.Holes != want {
			t.Fatalf("cycle %d: sample reports %d holes, the ROB holds %d splice cursors",
				c.now, s.Holes, want)
		}
		sampled++
		if want > 0 {
			withHoles++
		}
	})
	if withHoles == 0 || c.stats.NestedMisses == 0 {
		t.Fatalf("holes in %d of %d samples, %d nested misses: the workload does not exercise the table",
			withHoles, sampled, c.stats.NestedMisses)
	}
	t.Logf("holes in %d of %d samples, %d selective recoveries, %d nested misses",
		withHoles, sampled, c.stats.SliceRecoveries, c.stats.NestedMisses)
}

// TestSegBufPoolRefcounts shares one two-chunk buffer between a miss and
// a nested miss viewing its suffix: the chunks and the buffer go back to
// their free lists only at the second release, and come back out of them.
func TestSegBufPoolRefcounts(t *testing.T) {
	prog, img := longSlices(2, 300)
	c := &Core{}
	th := &thread{c: c, m: emu.New(prog, img)}
	var br emu.DynInst
	stepToSliceBranch(t, th.m, &br)
	sb := c.buildSegment(th, br.SliceID)
	if len(sb.chunks) != 2 {
		t.Fatalf("segment of %d records fills %d chunks, want 2", sb.n, len(sb.chunks))
	}
	parent := &missInfo{branchSeq: 1, seg: segment{buf: sb, hi: sb.n}}
	child := &missInfo{branchSeq: 2}
	child.seg = parent.seg.split(1)
	th.addMiss(parent)
	th.addMiss(child)
	if sb.refs != 2 {
		t.Fatalf("refs after split = %d, want 2", sb.refs)
	}

	c.releaseMiss(th, parent)
	if sb.refs != 1 || len(c.segPool) != 0 || len(c.chunkPool) != 0 {
		t.Fatalf("buffer freed while a child still views it (refs=%d pool=%d chunks=%d)",
			sb.refs, len(c.segPool), len(c.chunkPool))
	}
	c.releaseMiss(th, child)
	if len(c.segPool) != 1 || len(c.chunkPool) != 2 || len(sb.chunks) != 0 {
		t.Fatalf("after the last release: %d buffers, %d chunks free, %d chunks kept",
			len(c.segPool), len(c.chunkPool), len(sb.chunks))
	}
	if len(th.misses) != 0 || th.pendingMisses != 0 {
		t.Fatalf("released misses still counted: table=%d pending=%d", len(th.misses), th.pendingMisses)
	}

	stepToSliceBranch(t, th.m, &br)
	sb2 := c.buildSegment(th, br.SliceID)
	if sb2 != sb || sb2.refs != 1 || c.segBufsMade != 1 || c.chunksMade != 2 {
		t.Fatalf("second build did not recycle (refs=%d, %d buffers and %d chunks made)",
			sb2.refs, c.segBufsMade, c.chunksMade)
	}
}

// TestMissRecycling: a released miss re-enters the free list only once
// its branch uop has been freed too, in either order, and comes back
// cleared, with its channel capacity and rename table.
func TestMissRecycling(t *testing.T) {
	c := &Core{}
	th := &thread{c: c}
	u := &uop{}
	u.d.Seq = 5
	mi := c.newMiss(u)
	if u.miss != mi || !mi.branchLive || mi.branchSeq != 5 {
		t.Fatalf("newMiss did not link the branch: %+v", mi)
	}
	th.addMiss(mi)
	mi.wp = append(mi.wp, &uop{})
	mi.feq = append(mi.feq, &uop{})
	mi.rtbl, mi.rtblSeeded, mi.ckValid = new(renameTable), true, true
	rtbl := mi.rtbl

	c.releaseMiss(th, mi)
	if len(c.missPool) != 0 {
		t.Fatal("miss recycled while its branch uop still points at it")
	}
	c.freeUop(u)
	if len(c.missPool) != 1 || u.miss != nil {
		t.Fatalf("freeing the branch did not recycle its released miss (pool=%d)", len(c.missPool))
	}

	u2 := &uop{}
	u2.d.Seq = 9
	if got := c.newMiss(u2); got != mi || c.missesMade != 1 {
		t.Fatalf("newMiss allocated (%d made) instead of recycling", c.missesMade)
	}
	if mi.state != missPending || mi.branchSeq != 9 || mi.rtblSeeded || mi.ckValid ||
		len(mi.wp) != 0 || len(mi.feq) != 0 {
		t.Fatalf("recycled miss not cleared: %+v", mi)
	}
	if cap(mi.wp) == 0 || cap(mi.feq) == 0 || mi.rtbl != rtbl {
		t.Fatal("recycled miss lost its capacity or rename table")
	}

	// A squash frees the branch first, then cancels the miss.
	th.addMiss(mi)
	c.freeUop(u2)
	if len(c.missPool) != 0 {
		t.Fatal("miss recycled before its release")
	}
	c.releaseMiss(th, mi)
	if len(c.missPool) != 1 {
		t.Fatal("released miss with a freed branch not recycled")
	}
}

func TestReleaseMissTwicePanics(t *testing.T) {
	c := &Core{}
	th := &thread{c: c}
	mi := &missInfo{branchSeq: 1}
	th.addMiss(mi)
	c.releaseMiss(th, mi)
	defer func() {
		if recover() == nil {
			t.Fatal("second release of one miss did not panic")
		}
	}()
	c.releaseMiss(th, mi)
}

// TestNestedMissTableOrder detects misses the way fetch does — regular
// misses in program order, then a nested miss from inside the oldest
// one's segment — and requires the table to stay in program order, so
// its first entry is the oldest hole.
func TestNestedMissTableOrder(t *testing.T) {
	th := &thread{c: &Core{}}
	for _, seq := range []uint64{10, 40, 70} {
		th.addMiss(&missInfo{branchSeq: seq})
	}
	th.misses[0].state = missQueued
	th.addMiss(&missInfo{branchSeq: 15})
	var got []uint64
	for _, mi := range th.misses {
		got = append(got, mi.branchSeq)
	}
	if len(got) != 4 || got[0] != 10 || got[1] != 15 || got[2] != 40 || got[3] != 70 {
		t.Fatalf("table order %v, want [10 15 40 70]", got)
	}
	if th.oldestHoleSeq() != 10 || th.pendingMisses != 4 {
		t.Fatalf("oldest hole %d, pending %d", th.oldestHoleSeq(), th.pendingMisses)
	}
}

// TestCheckQuiescentReportsLeftoverMiss runs a program to completion,
// then enters misses into the finished core's table: a released one
// must leave no trace, and one left in the table must be named.
func TestCheckQuiescentReportsLeftoverMiss(t *testing.T) {
	b := program.NewBuilder("halt")
	b.Halt()
	c := runCore(t, selectiveConfig(), b.Build(), program.NewLayout().Image(), nil)
	th := c.threads[0]

	u := &uop{}
	u.d.Seq = 3
	released := c.newMiss(u)
	th.addMiss(released)
	c.releaseMiss(th, released)
	c.branchFreed(released)
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("released miss still reported: %v", err)
	}

	th.addMiss(&missInfo{branchSeq: 7})
	err := c.CheckQuiescent()
	if err == nil || !strings.Contains(err.Error(), "br=#7") {
		t.Fatalf("leftover miss not reported: %v", err)
	}
}
