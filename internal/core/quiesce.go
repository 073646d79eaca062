package core

import "fmt"

// CheckQuiescent verifies that a finished core has returned every
// microarchitectural resource: the ROB space (including block gaps), the
// reservation stations, the load/store queues, the in-slice counter that
// arms the §4.7 reservation, every thread's logical ROB list, frontend,
// miss table and store-forwarding list, and the scheduler's
// ready/specials/event structures. An empty miss table means every miss
// was released (releaseMiss panics on a second release). The selective
// path's free lists must each hold every segment chunk, segment buffer
// and missInfo the core allocated. It also asserts the uop conservation
// law: every uop fetch created was committed, squashed after dispatch,
// or discarded in the frontend.
//
// It is meaningful only once Done() reports true; the sim driver calls it
// after every successful run, making resource leaks and accounting drift
// hard failures rather than silent statistics skew.
func (c *Core) CheckQuiescent() error {
	if !c.Done() {
		return fmt.Errorf("core %d: CheckQuiescent before Done", c.id)
	}
	if u := c.space.Used(); u != 0 {
		return fmt.Errorf("core %d: %d ROB entries still allocated", c.id, u)
	}
	if g := c.space.Gaps(); g != 0 {
		return fmt.Errorf("core %d: %d ROB block gaps unreclaimed", c.id, g)
	}
	if c.rsUsed != 0 || c.lqUsed != 0 || c.sqUsed != 0 {
		return fmt.Errorf("core %d: queue occupancy not zero: rs=%d lq=%d sq=%d",
			c.id, c.rsUsed, c.lqUsed, c.sqUsed)
	}
	if c.inSliceCount != 0 {
		return fmt.Errorf("core %d: inSliceCount=%d at quiesce", c.id, c.inSliceCount)
	}
	if c.draining != 0 {
		return fmt.Errorf("core %d: %d partial-flush drains outstanding at quiesce", c.id, c.draining)
	}
	for _, t := range c.threads {
		if n := t.list.Len(); n != 0 {
			return fmt.Errorf("core %d t%d: %d uops still linked in the ROB", c.id, t.id, n)
		}
		if n := len(t.frontend); n != 0 {
			return fmt.Errorf("core %d t%d: %d uops left in the frontend", c.id, t.id, n)
		}
		if n := len(t.misses); n != 0 {
			mi := t.misses[0]
			return fmt.Errorf("core %d t%d: %d misses left in the table, oldest br=#%d %s",
				c.id, t.id, n, mi.branchSeq, mi.state)
		}
		if t.pendingMisses != 0 {
			return fmt.Errorf("core %d t%d: pendingMisses=%d at quiesce", c.id, t.id, t.pendingMisses)
		}
		if t.inflight != 0 {
			return fmt.Errorf("core %d t%d: inflight=%d at quiesce", c.id, t.id, t.inflight)
		}
		if n := t.drainLen(); n != 0 {
			return fmt.Errorf("core %d t%d: %d partial-flush victims still parked", c.id, t.id, n)
		}
		if t.lowConfOut != 0 {
			return fmt.Errorf("core %d t%d: lowConfOut=%d at quiesce", c.id, t.id, t.lowConfOut)
		}
		if n := len(t.stores); n != 0 {
			return fmt.Errorf("core %d t%d: %d stores still in the forwarding list", c.id, t.id, n)
		}
		if t.fenceStall || t.barrierWait {
			return fmt.Errorf("core %d t%d: stalled at quiesce (fence=%v barrier=%v)",
				c.id, t.id, t.fenceStall, t.barrierWait)
		}
	}
	for _, e := range c.readyQ {
		if e.u.id == e.id && e.u.state == stWaiting {
			return fmt.Errorf("core %d: live uop in ready queue at quiesce", c.id)
		}
	}
	for _, e := range c.specials {
		if e.u.id == e.id && e.u.state == stWaiting {
			return fmt.Errorf("core %d: live uop in specials list at quiesce", c.id)
		}
	}
	for _, e := range c.events {
		if e.u.id == e.id && e.u.state == stIssued {
			return fmt.Errorf("core %d: live completion event at quiesce", c.id)
		}
	}
	for _, p := range [...]struct {
		name       string
		free, made int
	}{
		{"segment chunk", len(c.chunkPool), c.chunksMade},
		{"segment buffer", len(c.segPool), c.segBufsMade},
		{"miss", len(c.missPool), c.missesMade},
	} {
		if p.free != p.made {
			return fmt.Errorf("core %d: %s free list holds %d of the %d allocated",
				c.id, p.name, p.free, p.made)
		}
	}
	s := &c.stats
	if got := s.Committed + s.UopsSquashed + s.UopsFEDiscarded; s.UopsFetched != got {
		return fmt.Errorf("core %d: uop conservation violated: fetched=%d != committed=%d + squashed=%d + discarded=%d",
			c.id, s.UopsFetched, s.Committed, s.UopsSquashed, s.UopsFEDiscarded)
	}
	return nil
}
