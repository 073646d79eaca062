package core

import (
	"fmt"

	"repro/internal/isa"
)

// fetch fills the frontend queues. One thread fetches per cycle, chosen by
// ICOUNT (fewest in-flight instructions), which is the standard SMT fetch
// policy; with one thread it degenerates to that thread every cycle.
func (c *Core) fetch() {
	t := c.pickFetchThread()
	if t == nil {
		return
	}
	c.fetchThread(t)
}

func (c *Core) pickFetchThread() *thread {
	var best *thread
	for i := range c.threads {
		t := c.threads[(c.fetchRR+i)%len(c.threads)]
		if t.done || t.finishedFetching() && t.resolving == nil {
			continue
		}
		if c.now < t.fetchStallUntil {
			continue
		}
		if t.resolving == nil || t.resolving.stall != nil {
			if len(t.frontend) >= c.cfg.FrontendQueue {
				continue
			}
		}
		if t.nextFetchPC() < 0 {
			continue // barrier/fence/halt/wrong-path stall: nothing to fetch
		}
		if best == nil || t.inflight < best.inflight {
			best = t
		}
	}
	c.fetchRR++
	return best
}

// iCacheCheck models instruction-cache timing at 16-byte (4-instruction)
// line granularity: crossing into a line that misses stalls fetch until
// the fill completes.
func (c *Core) iCacheCheck(t *thread, pc int) bool {
	lineSz := 4 // instructions per fetch line
	line := pc / lineSz
	if line == t.lastILine {
		return true
	}
	done := c.hier.Inst(pc, c.now)
	t.lastILine = line
	if done > c.now+int64(c.hier.L1I.Config().HitLatency) {
		t.fetchStallUntil = done
		return false
	}
	return true
}

// fetchThread pulls up to FetchWidth instructions from the thread's
// current source, in priority order: resolve path (the oldest queued
// miss), wrong path (shadow), regular trace.
func (c *Core) fetchThread(t *thread) {
	width := c.cfg.FetchWidth
	if t.lowConfOut > 0 {
		c.stats.ThrottledCycles++
		width = 1
	}
	for used := 0; used < width; used++ {
		// The resolve stream has its own unbounded frontend channel so
		// that blocked regular instructions can never stop a correct
		// path from entering the ROB (the role of the §4.7 front-end
		// flush); its real bound is the FRQ depth times the slice
		// length.
		if t.resolving == nil || t.resolving.stall != nil {
			if len(t.frontend) >= c.cfg.FrontendQueue {
				return
			}
		}
		pc := t.nextFetchPC()
		if pc < 0 {
			return
		}
		if !c.iCacheCheck(t, pc) {
			return
		}
		stop := false
		switch {
		case t.resolving != nil && t.resolving.stall == nil:
			c.stats.FetchResolve++
			stop = c.fetchResolve(t)
		case t.mode == fmWrong:
			c.stats.FetchWrong++
			stop = c.fetchWrong(t)
		default:
			c.stats.FetchNormal++
			stop = c.fetchNormal(t)
		}
		if stop {
			return
		}
	}
}

// enqueue places a fetched uop into the regular frontend queue with the
// pipeline delay. Dispatch pops the queue by reslicing, so its live
// window creeps along the backing array; when the window reaches the
// end, it moves back to the start (feBuf) instead of letting append
// reallocate.
func (t *thread) enqueue(u *uop) {
	u.readyFE = t.c.now + int64(t.c.cfg.FrontendDepth)
	u.state = stFrontend
	if n := len(t.frontend); n == cap(t.frontend) && n < cap(t.feBuf) {
		t.frontend = t.feBuf[:copy(t.feBuf[:cap(t.feBuf)], t.frontend)]
	}
	t.frontend = append(t.frontend, u)
	if cap(t.frontend) > cap(t.feBuf) {
		t.feBuf = t.frontend[:0] // append grew a new backing array
	}
}

// enqueueResolve places a fetched resolve-path uop into its miss's
// resolve channel.
func (t *thread) enqueueResolve(u *uop) {
	u.readyFE = t.c.now + int64(t.c.cfg.FrontendDepth)
	u.state = stFrontend
	u.resolveOf.feq = append(u.resolveOf.feq, u)
}

// predictBranch runs the direction predictor and BTB for a fetched
// correct-path conditional branch, returning whether fetch must stop this
// cycle (taken-predicted branches end the fetch group).
func (c *Core) predictBranch(t *thread, u *uop) (mispred, stop bool) {
	d := &u.d
	c.stats.Branches++
	predTaken, p := t.pred.Predict(uint64(d.PC), d.Taken)
	t.pred.OnFetch(predTaken)
	u.pred = p
	u.predTaken = predTaken
	if p.Conf < c.gateConf {
		u.lowConf = true
		t.lowConfOut++
	}
	if predTaken {
		stop = true
		if _, hit := t.btb.Lookup(uint64(d.PC)); !hit {
			// Decode-stage redirect bubble on BTB miss.
			t.btb.Insert(uint64(d.PC), int(d.Inst.Imm))
			t.fetchStallUntil = c.now + 2
		}
	}
	if predTaken != d.Taken {
		c.stats.Mispredicts++
		u.mispred = true
		return true, true
	}
	return false, stop
}

// fetchNormal fetches one instruction from the correct-path trace and
// handles miss detection, slice markers, fences, barriers, and halt.
// It returns true when fetch must stop for this cycle.
func (c *Core) fetchNormal(t *thread) bool {
	u := c.newUop(t)
	if err := t.m.StepInto(&u.d); err != nil {
		panic(fmt.Sprintf("core %d thread %d: %v", c.id, t.id, err))
	}
	d := &u.d
	u.age = d.Seq
	u.reduce = d.Inst.Reduce()

	switch d.Inst.Op {
	case isa.SliceFence:
		t.enqueue(u)
		if t.pendingMisses > 0 {
			// Approximation (see DESIGN.md): instructions past the
			// fence would be flushed when an in-slice miss resolves
			// (§4.4); we stall fetch at the fence instead.
			t.fenceStall = true
			return true
		}
		return false
	case isa.SliceStart, isa.SliceEnd:
		t.enqueue(u)
		return false
	case isa.Barrier:
		t.enqueue(u)
		t.barrierWait = true
		t.barrierUop = u
		return true
	case isa.Halt:
		t.enqueue(u)
		t.haltSeen = true
		return true
	}

	if !d.IsBranch() {
		t.enqueue(u)
		return false
	}

	mispred, stop := c.predictBranch(t, u)
	t.enqueue(u)
	if !mispred {
		return stop
	}

	// Misprediction detected (it will be acted on when the branch
	// executes). Decide the recovery style now, as the frontend's fetch
	// divergence depends on it.
	// Gate on total outstanding selective recoveries (detected-but-
	// unresolved plus FRQ-queued) so the FRQ can never overflow at
	// resolution; an over-limit miss recovers conventionally (§4.8).
	selective := c.selEligible && d.InSlice &&
		t.pendingMisses+t.queuedMisses() < c.cfg.FRQSize
	wrongPC := d.Inst.Next(d.PC, u.predTaken)
	t.wpAge = d.Seq
	if selective {
		mi := c.newMiss(u)
		b := c.buildSegment(t, d.SliceID)
		mi.seg = segment{buf: b, hi: b.n}
		c.stats.SegLenSum += uint64(b.n)
		t.addMiss(mi)
		t.fork(wrongPC, true, d.SliceID)
		t.shadowMiss = mi
	} else {
		t.fork(wrongPC, d.InSlice, d.SliceID)
		t.shadowMiss = nil
		t.convMiss = u
	}
	// Redirect bubble: fetch resumes next cycle from the wrong path.
	return true
}

// fetchWrong fetches one wrong-path instruction from the shadow engine.
func (c *Core) fetchWrong(t *thread) bool {
	u := c.newUop(t)
	if !t.shadow.StepInto(&u.d) {
		// The wrong path ran off the program. A conventional miss
		// keeps fetch stalled until resolution; an in-slice miss that
		// never reached its slice_end stalls the same way.
		c.unfetch(u)
		if t.shadowMiss != nil {
			t.wpStuck = true
		}
		return true
	}
	d := &u.d
	// Wrong-path branches follow the shadow's own outcomes: the fork
	// inherits real register values, so near-reconvergence wrong paths
	// (the common case for slice bodies) terminate where the real wrong
	// path would. The predictor sees the fetched direction in its
	// speculative history but is never trained on wrong-path branches
	// (DESIGN.md, approximation 1).
	if d.IsBranch() {
		t.pred.OnFetch(d.Taken)
	}
	u.wpOf = t.shadowMiss
	u.age = t.wpAge
	c.stats.FetchedWrongPath++
	t.enqueue(u)

	// In-slice wrong paths end at the slice_end: beyond it the frontend
	// is back on control-independent (correct) instructions, which come
	// from the regular trace.
	if t.shadowMiss != nil && !t.shadow.InSlice() {
		t.mode = fmNormal
		t.shadow = nil
		t.shadowMiss = nil
	}
	return d.Inst.Op.IsBranch() && d.Taken
}

// fetchResolve fetches one instruction of the resolving miss's
// correct-path segment.
func (c *Core) fetchResolve(t *thread) bool {
	mi := t.resolving
	u := c.newUop(t)
	mi.seg.at(mi.fetched, &u.d)
	mi.fetched++
	d := &u.d
	u.age = d.Seq
	u.reduce = d.Inst.Reduce()
	u.resolvePath = true
	u.resolveOf = mi

	last := mi.fetched >= mi.seg.len()

	if d.IsBranch() {
		mispred, _ := c.predictBranch(t, u)
		if mispred {
			c.stats.NestedMisses++
			// A miss inside a resolving slice is handled by the same
			// mechanism, recursively: the remainder of this segment
			// is the nested miss's correct path, the parent's hole
			// ends at the nested branch, and fetch moves on (to
			// other pending misses or the regular stream) while the
			// nested branch resolves. Wrong-path fetch for nested
			// misses is not modeled (see DESIGN.md).
			if c.selEligible && d.InSlice &&
				t.pendingMisses+t.queuedMisses() < c.cfg.FRQSize {
				child := c.newMiss(u)
				// Truncate the parent at the nested branch: its
				// splice is complete once the branch dispatches.
				child.seg = mi.seg.split(mi.fetched)
				t.addMiss(child)
				last = true
			} else {
				// FRQ pressure: fall back to stalling resolve
				// fetch until the nested branch resolves.
				mi.stall = u
			}
		}
	}
	t.enqueueResolve(u)

	if last {
		// Segment complete (its slice_end was just fetched, or it was
		// truncated at a nested miss): move to the next queued miss,
		// or resume regular fetch at the regular-fetch point.
		mi.state = missSplicing
		t.startNextResolve()
		return true // redirect bubble back to regular fetch
	}
	return false
}
