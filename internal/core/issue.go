package core

import (
	"slices"

	"repro/internal/isa"
)

// issue selects ready instructions from the reservation stations,
// oldest-first by logical age (the standard age-based select), bounded by
// IssueWidth and per-class port capacity, and computes their completion
// times. Age priority matters for the selective-flush mechanism: the
// resolved correct path of an old hole is the commit-critical work, and
// must win ports and MSHRs over logically younger slices dispatched
// earlier.
//
// Selection is wakeup-driven: a dispatched uop is parked on its producers'
// waiter lists and enters the ready queue only when its last outstanding
// operand completes (or is flushed), so the per-cycle cost scales with
// wakeup events rather than RS occupancy. Uops whose readiness depends on
// more than operand availability — commit-time reductions waiting for the
// ROB head, barriers waiting for the simulator release — sit on a small
// polled "specials" list instead.
//
// To keep results byte-identical to the full-RS scan (whose age sort is
// unstable, so its tie order among equal-age uops — SMT threads share the
// age space, and a miss's wrong-path uops all carry the branch's age — is
// an artifact of the candidates' RS order), the candidates reach the same
// age sort in dispatch order, which is exactly the order the RS scan
// produces: the ready queue is kept in dispatch order as entries are
// enqueued, and ready specials are merged into it by dispSeq.
// Config.ForceCycleAccurate selects the legacy scan (issueScan) for
// equivalence testing.
func (c *Core) issue() {
	if c.forceCyc {
		c.issueScan()
		return
	}
	ready := c.candidates()
	c.issueFrom(ready)
	c.ready_ = ready[:0]
}

// candidates drops stale entries from the ready queue and the specials
// list and returns the issuable uops in dispatch order: the queue's live
// entries, with the ready specials merged in by dispSeq.
func (c *Core) candidates() []*uop {
	ready := c.ready_[:0]
	rq := c.readyQ[:0]
	for _, e := range c.readyQ {
		if e.u.id != e.id || e.u.state != stWaiting {
			continue // issued or flushed since it was enqueued
		}
		rq = append(rq, e)
		ready = append(ready, e.u)
	}
	c.readyQ = rq
	sp := c.specials[:0]
	for _, e := range c.specials {
		if e.u.id != e.id || e.u.state != stWaiting {
			continue
		}
		sp = append(sp, e)
		if c.specialReady(e.u) {
			i := len(ready)
			for i > 0 && ready[i-1].dispSeq > e.u.dispSeq {
				i--
			}
			ready = slices.Insert(ready, i, e.u)
		}
	}
	c.specials = sp
	return ready
}

// issueScan is the legacy selection loop: scan the whole RS, test every
// waiting uop's operands, and sort the ready set. Kept behind
// Config.ForceCycleAccurate as the reference the event-driven path is
// equivalence-tested against.
func (c *Core) issueScan() {
	live := c.rs[:0]
	ready := c.ready_[:0]
	for _, u := range c.rs {
		if u.state != stWaiting {
			continue // issued, flushed: drop from RS view
		}
		live = append(live, u)
		if c.ready(u) {
			ready = append(ready, u)
		}
	}
	c.rs = live
	c.issueFrom(ready)
	c.ready_ = ready[:0]
}

// issueFrom sorts the dispatch-ordered candidate set by age and issues up
// to IssueWidth instructions within per-class port capacity.
func (c *Core) issueFrom(ready []*uop) {
	sortByAge(ready)
	budget := c.cfg.IssueWidth
	var ports [isa.NumClasses]int
	for _, u := range ready {
		if budget == 0 {
			break
		}
		cl := u.d.Inst.Op.Class()
		if ports[cl] >= classPorts[cl] {
			continue
		}
		ports[cl]++
		budget--
		c.issueOne(u)
	}
}

// sortByAge orders candidates oldest first. The sort is intentionally
// unstable and must keep matching what sort.Slice did in the original
// scan implementation: slices.SortFunc instantiates the same pdqsort
// template, so equal-age candidates permute identically given the same
// input order — without sort.Slice's per-call boxing allocations.
// pdqsort returns a slice already in non-decreasing order unchanged, so
// the sort runs only when some candidate is older than its predecessor.
func sortByAge(ready []*uop) {
	for i := 1; i < len(ready); i++ {
		if ready[i].age < ready[i-1].age {
			slices.SortFunc(ready, byAge)
			return
		}
	}
}

// byAge is the age sort's comparator.
func byAge(a, b *uop) int {
	if a.age < b.age {
		return -1
	}
	if a.age > b.age {
		return 1
	}
	return 0
}

// ready reports whether all of u's operands are available and any
// execution-ordering constraint is met (legacy scan path).
func (c *Core) ready(u *uop) bool {
	for i := 0; i < u.ndeps; i++ {
		if !u.deps[i].ready(c.now) {
			return false
		}
	}
	return c.specialReady(u)
}

// specialReady checks the non-operand readiness conditions.
func (c *Core) specialReady(u *uop) bool {
	// Reduction updates execute only at the head of the ROB (§4.5),
	// like atomics in conventional cores.
	if u.reduce {
		h := u.t.list.Head()
		if h == nil || h.Val != u {
			return false
		}
	}
	// Barriers wait for the simulator-level release.
	if u.d.Inst.Op == isa.Barrier && !u.barrierOK {
		return false
	}
	return true
}

// registerWakeups parks a freshly dispatched uop on the waiter lists of
// its not-yet-complete producers; a uop with no outstanding operands goes
// straight to the ready (or specials) queue. Duplicate producers register
// — and later decrement — once per dep slot, so the count stays balanced.
func (c *Core) registerWakeups(u *uop) {
	wait := 0
	for i := 0; i < u.ndeps; i++ {
		r := u.deps[i]
		if r.ready(c.now) {
			continue
		}
		r.u.waiters = append(r.u.waiters, waiter{u: u, id: u.id})
		wait++
	}
	u.waitCount = wait
	if wait == 0 {
		c.enqueueReady(u)
	}
}

// enqueueReady moves a uop whose operands are all available into the
// selection pool: the ready queue, or the polled specials list when its
// readiness has a non-operand component. The ready queue stays in
// dispatch order: a uop ready at dispatch goes last, and a woken one
// slots in behind the entries dispatched before it.
func (c *Core) enqueueReady(u *uop) {
	e := readyRef{u: u, id: u.id, seq: u.dispSeq}
	if u.reduce || u.d.Inst.Op == isa.Barrier {
		c.specials = append(c.specials, e)
		return
	}
	q := append(c.readyQ, e)
	i := len(q) - 1
	for ; i > 0 && q[i-1].seq > e.seq; i-- {
		q[i] = q[i-1]
	}
	q[i] = e
	c.readyQ = q
}

// wakeWaiters notifies the dependents of a uop that just produced its
// result (complete) or ceased to exist (flush): each live dependent's
// outstanding-operand count drops, and the last wake enqueues it for
// issue. The list is cleared — a dependent is decremented exactly once
// per registration, and a recycled producer starts empty.
func (c *Core) wakeWaiters(p *uop) {
	if len(p.waiters) == 0 {
		return
	}
	for _, w := range p.waiters {
		u := w.u
		if u.id != w.id || u.state != stWaiting {
			continue // dependent already issued, flushed, or recycled
		}
		u.waitCount--
		if u.waitCount == 0 {
			c.enqueueReady(u)
		}
	}
	p.waiters = p.waiters[:0]
}

// issueOne starts execution of u and schedules its completion.
func (c *Core) issueOne(u *uop) {
	u.state = stIssued
	u.issueCycle = c.now
	c.rsUsed--
	c.activity = true

	op := u.d.Inst.Op
	var done int64
	switch {
	case op.IsLoad():
		done = c.loadDone(u)
		if done-c.now > 100 {
			c.stats.LongLoads++
			c.longUntil = append(c.longUntil, done)
			c.longNext = min(c.longNext, done)
		}
	case op.IsAtomic():
		done = c.loadDone(u) + atomicExtra
	case op.IsStore():
		// Stores are "done" once their address and data are ready;
		// memory is updated at commit.
		done = c.now + 1
	case op == isa.Barrier:
		done = c.now + barrierLat
	default:
		done = c.now + int64(op.Class().Latency())
	}
	c.schedule(u, done)
}

// loadDone computes when a load's data arrives: store forwarding when an
// older overlapping store is in flight, otherwise a cache access. Wrong-
// path loads touch the cache too (pollution and prefetching effects,
// §6.1), except out-of-bounds wrong-path addresses.
func (c *Core) loadDone(u *uop) int64 {
	if u.fwdStore.u != nil && u.fwdStore.u.id == u.fwdStore.id {
		s := u.fwdStore.u
		if s.state == stWaiting || s.state == stIssued || s.state == stDone {
			return c.now + storeFwdLat
		}
	}
	if u.d.MemOOB {
		return c.now + int64(c.hier.L1D.Config().HitLatency)
	}
	if u.d.Wrong && !c.cfg.WrongPathMemAccess {
		// Wrong-path loads occupy resources and take a mid-hierarchy
		// latency, but neither warm nor pollute the caches.
		return c.now + int64(c.hier.L2.Config().HitLatency)
	}
	return c.hier.Data(u.d.Addr, uint64(u.d.PC), c.now, false)
}
