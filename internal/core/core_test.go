package core

import (
	"testing"

	"repro/internal/isa"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SMT = 3 },
		func(c *Config) { c.ROBSize = 0 },
		func(c *Config) { c.Reserve = -1 },
		func(c *Config) { c.Reserve = c.SQ },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.ROBBlockSize = 0 },
		func(c *Config) { c.Recovery = PolicySpec{Kind: PolicySelective}; c.Reserve = 0 },
		func(c *Config) { c.Recovery = PolicySpec{} },
		func(c *Config) { c.Predictor = "tagee" },
		func(c *Config) { c.Predictor = "" },
	}
	zeroReserveBaseline := DefaultConfig()
	zeroReserveBaseline.Reserve = 0
	if err := zeroReserveBaseline.Validate(); err != nil {
		t.Fatalf("Reserve 0 without selective flush should be valid: %v", err)
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Cycles: 100, Committed: 250, Branches: 50, Mispredicts: 5}
	if s.IPC() != 2.5 {
		t.Fatalf("IPC %f", s.IPC())
	}
	if s.MispredictRate() != 0.1 {
		t.Fatalf("rate %f", s.MispredictRate())
	}
	if s.MPKI() != 20 {
		t.Fatalf("MPKI %f", s.MPKI())
	}
	var z Stats
	if z.IPC() != 0 || z.MispredictRate() != 0 || z.MPKI() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Cycles: 10, Committed: 5, FRQPeak: 2, StackMem: 1}
	b := Stats{Cycles: 20, Committed: 7, FRQPeak: 1, StackMem: 2}
	a.Add(&b)
	if a.Cycles != 20 { // max, not sum: cores run concurrently
		t.Fatalf("cycles %d", a.Cycles)
	}
	if a.Committed != 12 || a.FRQPeak != 2 || a.StackMem != 3 {
		t.Fatalf("aggregate wrong: %+v", a)
	}
}

func TestEventHeapOrder(t *testing.T) {
	var h eventHeap
	for _, at := range []int64{5, 1, 9, 3} {
		h.push(event{at: at})
	}
	prev := int64(-1)
	for len(h) > 0 {
		e := h.pop()
		if e.at < prev {
			t.Fatalf("heap out of order: %d after %d", e.at, prev)
		}
		prev = e.at
	}
}

func TestDepRefStaleness(t *testing.T) {
	c := &Core{}
	u := c.newUop(nil)
	ref := makeRef(u)
	u.state = stWaiting
	if ref.ready(0) {
		t.Fatal("waiting producer reported ready")
	}
	u.state = stDone
	u.doneAt = 10
	if ref.ready(5) {
		t.Fatal("ready before doneAt")
	}
	if !ref.ready(10) {
		t.Fatal("not ready at doneAt")
	}
	// Recycle the uop: the stale reference must read as ready.
	u.state = stCommitted
	c.freeUop(u)
	u2 := c.newUop(nil)
	u2.state = stWaiting
	if u2 != u {
		t.Fatal("pool did not recycle")
	}
	if !ref.ready(0) {
		t.Fatal("stale reference to recycled uop not treated as ready")
	}
}

func TestUopPoolResets(t *testing.T) {
	c := &Core{}
	u := c.newUop(nil)
	u.d.Seq = 7
	u.mispred = true
	u.tombstone = true
	u.ndeps = 3
	id := u.id
	c.freeUop(u)
	u2 := c.newUop(nil)
	if u2.mispred || u2.tombstone || u2.ndeps != 0 || u2.d.Seq != 0 {
		t.Fatal("pooled uop state leaked")
	}
	if u2.id == id {
		t.Fatal("recycled uop kept its id")
	}
	if u2.node.Val != u2 {
		t.Fatal("node back-pointer not reset")
	}
}

// TestFrontendQueueReusesBackingArray pops and pushes the regular
// frontend queue the way dispatch and fetch do: once the live window
// walks to the end of its backing array it must move back to the start
// rather than reallocate.
func TestFrontendQueueReusesBackingArray(t *testing.T) {
	th := &thread{c: &Core{cfg: DefaultConfig()}}
	u := &uop{}
	for i := 0; i < 4; i++ {
		th.enqueue(u)
	}
	base := &th.feBuf[:1][0]
	allocs := testing.AllocsPerRun(100, func() {
		th.frontend = th.frontend[1:]
		th.enqueue(u)
	})
	if allocs != 0 || &th.feBuf[:1][0] != base || len(th.frontend) != 4 {
		t.Fatalf("allocs per pop+push = %v, backing array moved = %v, len = %d",
			allocs, &th.feBuf[:1][0] != base, len(th.frontend))
	}
}

func TestClassPortsCoverage(t *testing.T) {
	// Every class the issue stage can see must have a port budget; slice
	// markers never reach issue (dispatch discards them), so they have
	// none.
	for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
		switch ports := classPorts[cl]; {
		case cl == isa.ClassSlice && ports != 0:
			t.Errorf("class %v has %d ports, want 0 (dispatch discards it)", cl, ports)
		case cl != isa.ClassSlice && ports <= 0:
			t.Errorf("class %v has no ports", cl)
		}
	}
}
