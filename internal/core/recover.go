package core

import "repro/internal/flight"

// resolveBranch handles execution-time resolution of a correct-path
// conditional branch: predictor training, releasing its fetch-gate mark,
// and — for mispredictions — either the selective flush of §4.2 or the
// full-squash walk.
func (c *Core) resolveBranch(u *uop) {
	t := u.t
	if u.lowConf {
		u.lowConf = false
		t.lowConfOut--
	}

	if !u.mispred {
		t.pred.Resolve(u.pred, uint64(u.d.PC), u.d.Taken, true)
		return
	}

	switch {
	case u.miss != nil && u.miss.state == missPending:
		// In-slice miss — including nested misses detected inside a
		// resolve path, which recurse through the same mechanism.
		c.resolveSelective(t, u)
	case u.resolvePath:
		// Nested miss handled by the stall fallback (FRQ was full at
		// detection): the rest of the segment is the correct path;
		// fetch resumes from it after a redirect bubble.
		t.pred.Resolve(u.pred, uint64(u.d.PC), u.d.Taken, false)
		if u.resolveOf != nil && u.resolveOf.stall == u {
			u.resolveOf.stall = nil
		}
		t.fetchStallUntil = max(t.fetchStallUntil, c.now+1)
	default:
		c.resolveFull(t, u)
	}
}

// resolveSelective performs the §4.2 recovery: flush only the wrong-path
// instructions of the slice, queue the miss in the FRQ, and let fetch
// splice the buffered correct path into the linked ROB.
func (c *Core) resolveSelective(t *thread, u *uop) {
	mi := u.miss
	mi.state = missQueued

	// Detection-time gating (fetchNormal) bounds concurrent selective
	// recoveries to the FRQ capacity, so the queue cannot overflow.
	frq := t.queuedMisses()
	if frq > c.cfg.FRQSize {
		panic("core: FRQ overflow despite detection-time gating")
	}
	c.stats.FRQPeak = max(c.stats.FRQPeak, frq)

	t.pred.Resolve(u.pred, uint64(u.d.PC), u.d.Taken, false)
	c.stats.SliceRecoveries++
	if c.rec != nil {
		c.recordMechanism(flight.EvRecoverSel, t, u, int64(mi.seg.len()))
	}
	if mi.seg.len() > 0 {
		// The branch entry is the initial splice cursor: the first
		// resolved-path instruction is inserted right after it.
		mi.insertPos = &u.node
		u.spliceHold = mi
	}

	// Selectively flush this miss's wrong-path instructions: dispatched
	// ones unlink from the ROB, frontend ones drop.
	dispFlushed := 0
	for i, w := range mi.wp {
		if w.state == stFlushed || w.state == stCommitted {
			continue
		}
		if faultMode == FaultSkipUnlink && i == 0 {
			continue // injected bug: leave one wrong-path uop linked
		}
		if c.rec != nil {
			c.recordMechanism(flight.EvUnlink, t, w, int64(mi.branchSeq))
		}
		c.flushUop(t, w)
		dispFlushed++
	}
	mi.wp = mi.wp[:0]
	feFlushed := 0
	fe := t.frontend[:0]
	for _, w := range t.frontend {
		if w.wpOf == mi {
			c.freeUop(w)
			feFlushed++
			continue
		}
		fe = append(fe, w)
	}
	t.frontend = fe
	c.stats.FlushedSelective += uint64(dispFlushed + feFlushed)

	// Wrong-path fetch for this miss still in progress: it dies here
	// (the shadow's remaining instructions were never fetched).
	if t.shadowMiss == mi {
		t.shadow = nil
		t.shadowMiss = nil
		t.wpStuck = false
	}

	// Block-partitioned ROB: stranded entries from the flush and the
	// upcoming splice (§4.3, Fig. 3), reclaimed when the region retires.
	if c.space.BlockSize() > 1 {
		segReal := 0
		for i := range mi.seg.len() {
			if !mi.seg.op(i).IsSlice() {
				segReal++
			}
		}
		release := u.d.Seq
		if n := mi.seg.len(); n > 0 {
			release = mi.seg.seq(n - 1)
		}
		g := c.space.FlushGaps(dispFlushed, segReal, release, c.cfg.Reserve+1)
		c.stats.GapsCreated += uint64(g)
	}

	if faultMode != FaultLeakPending {
		t.pendingMisses--
	}
	if t.pendingMisses == 0 {
		t.fenceStall = false
	}
	if mi.seg.len() == 0 {
		c.releaseMiss(t, mi) // nothing to splice
	}

	// Fetch turns to the oldest queued miss (this one, unless an even
	// older hole is still resolving) after a one-cycle redirect bubble.
	t.startNextResolve()
	t.fetchStallUntil = max(t.fetchStallUntil, c.now+1)
}

// resolveFull is the full-squash walk, the recovery of every mispredict
// the selective path does not handle: it removes everything logically
// younger than branch u, cancels pending misses belonging to the flushed
// region, restores the rename checkpoint, and resets the fetch state
// machine to the correct path (the trace cursor, which stopped right
// after the branch). Under a squash depth N (partial:N) only the N
// victims nearest the branch leave the window at resolution; the rest
// are parked and drained N per cycle (drainStep), modeling a squash
// walker that reclaims a bounded number of entries per cycle, while the
// branch holds commit as the order boundary (drainHold). Frontend, miss,
// rename and fetch repair are never staged.
func (c *Core) resolveFull(t *thread, u *uop) {
	// A new recovery supersedes an in-progress drain: its parked
	// victims are all logically younger than the (older) new branch's
	// window contents-to-be, so finish releasing them at once rather
	// than hold the new correct path behind stale wrong-path work.
	if t.drainLen() > 0 {
		c.finishDrain(t)
	}
	t.pred.Resolve(u.pred, uint64(u.d.PC), u.d.Taken, true)
	c.stats.ConvRecoveries++

	// 1. Flush dispatched younger instructions (linked-list order is
	// logical order, so resolve-path instructions of older misses —
	// spliced before u — survive). Victims come oldest-first; the
	// released prefix leaves the window now. No recovery has more
	// victims than the ROB has entries, so a depth of at least the ROB
	// size releases everything, like depth 0.
	victims := t.list.RemoveRangeAfter(&u.node, c.victims[:0])
	c.victims = victims
	released := len(victims)
	if c.squashDepth > 0 && c.squashDepth < released {
		released = c.squashDepth
	}
	if c.rec != nil {
		c.recordMechanism(flight.EvRecoverFull, t, u, int64(len(victims)))
	}
	for i, n := range victims[:released] {
		if faultMode != FaultNone && i == 0 && c.faultFullFlushVictim(t, u, n) {
			continue
		}
		c.releaseFlushed(t, n.Val)
	}
	c.stats.FlushedFull += uint64(len(victims))

	// 2. Flush the frontend: wrong-path uops and regular uops younger
	// than the branch.
	fe := t.frontend[:0]
	for _, w := range t.frontend {
		if w.d.Wrong || w.d.Seq > u.d.Seq {
			c.freeUop(w)
			continue
		}
		fe = append(fe, w)
	}
	t.frontend = fe

	// 3. Cancel every miss younger than the branch, with its resolve
	// channel. These are exactly the misses whose branches were just
	// flushed: u is a regular-stream branch, so a miss detected after
	// it (in the regular stream, or nested in a younger miss's segment)
	// is younger, and one detected before it is older, nested ones
	// included, because a segment precedes the regular instructions
	// fetched after its detection. Walking the table's suffix
	// backwards, each release takes the last entry. Cancellation is not
	// staged: a parked victim's miss must leave the FRQ now, before
	// startNextResolve picks a resolve target. Parked victims stay live
	// (they may still issue and complete while draining) and are freed
	// as the drain releases them.
	for i := len(t.misses) - 1; i >= 0 && t.misses[i].branchSeq > u.d.Seq; i-- {
		c.cancelMiss(t, t.misses[i])
	}
	for i, n := range victims[:released] {
		if faultMode == FaultSkipUnlink && i == 0 {
			continue // re-linked by the injected fault: still live
		}
		c.freeUop(n.Val)
	}
	if t.pendingMisses == 0 {
		t.fenceStall = false
	}
	t.startNextResolve()

	// 4. Rename table back to the branch checkpoint. References to
	// flushed or recycled producers resolve as ready automatically.
	if u.ck != nil {
		t.rt.Restore(*u.ck)
		c.ckPool = append(c.ckPool, u.ck)
		u.ck = nil
	} else if u.miss != nil && u.miss.ckValid {
		t.rt.Restore(u.miss.ck)
	}

	// 5. Reset fetch to the trace.
	c.resetFetchAfterFlush(t)

	// 6. Park the unreleased victims oldest-first and hold the branch
	// at commit as the order boundary until the walker catches up.
	if released == len(victims) {
		return
	}
	for _, n := range victims[released:] {
		t.drainQ = append(t.drainQ, n.Val)
	}
	u.drainHold = true
	t.drainBoundary = u
	t.drainBoundaryID = u.id
	c.draining++
}

// resetFetchAfterFlush points fetch back at the trace — step 5 of every
// full-squash recovery. The machine's cursor stopped at the branch's
// correct-path successor when the miss was detected (non-selective
// misses always divert fetch to the shadow), so regular fetch resumes
// exactly on the correct path.
func (c *Core) resetFetchAfterFlush(t *thread) {
	t.shadow = nil
	t.shadowMiss = nil
	t.wpStuck = false
	if c.space.BlockSize() > 1 {
		c.space.ReleaseAllGaps()
	}
	t.redirectUntil = c.now + 1 + int64(c.cfg.FrontendDepth)
	t.fetchStallUntil = max(t.fetchStallUntil, c.now+1)
	t.lastILine = -1
}

// drainStep advances every in-progress staged flush by one cycle,
// releasing up to the squash depth of parked victims per thread; when a
// queue empties, its boundary branch is released to commit. Runs right
// after complete (like flushes themselves), so freed resources are
// visible to dispatch the same cycle.
func (c *Core) drainStep() {
	for _, t := range c.threads {
		n := t.drainLen()
		if n == 0 {
			continue
		}
		k := min(c.squashDepth, n)
		for i := 0; i < k; i++ {
			w := t.drainQ[t.drainHead+i]
			t.drainQ[t.drainHead+i] = nil
			c.releaseFlushed(t, w)
			c.freeUop(w)
		}
		t.drainHead += k
		c.stats.DrainCycles++
		c.activity = true
		if t.drainLen() == 0 {
			c.endDrain(t)
		}
	}
}

// finishDrain releases a thread's remaining parked victims at once (a
// new recovery supersedes the drain in progress).
func (c *Core) finishDrain(t *thread) {
	for _, w := range t.drainQ[t.drainHead:] {
		c.releaseFlushed(t, w)
		c.freeUop(w)
	}
	c.endDrain(t)
}

// endDrain clears a completed drain: the boundary branch may commit.
func (c *Core) endDrain(t *thread) {
	if b := t.drainBoundary; b != nil && b.id == t.drainBoundaryID {
		b.drainHold = false
	}
	t.drainBoundary = nil
	t.drainQ = t.drainQ[:0]
	t.drainHead = 0
	c.draining--
}

// flushUop removes one dispatched uop from the window (selective flush).
func (c *Core) flushUop(t *thread, w *uop) {
	if w.node.InList() {
		t.list.Remove(&w.node)
	}
	c.releaseFlushed(t, w)
	c.freeUop(w)
}

// releaseFlushed returns a flushed uop's resources.
func (c *Core) releaseFlushed(t *thread, w *uop) {
	if w.tombstone {
		// Tombstones are committed cursors at or before the commit
		// frontier; no flush can reach them.
		panic("core: flushing a tombstone cursor")
	}
	if w.state == stWaiting {
		c.rsUsed--
	}
	w.state = stFlushed
	// A flushed producer satisfies its dependents' operand checks
	// (depRef.ready treats stFlushed as ready): wake them now.
	c.wakeWaiters(w)
	if c.rec != nil {
		c.recordUop(w, true)
	}
	c.space.Release()
	needLQ, needSQ := resourceNeeds(w.d.Inst.Op)
	if needLQ {
		c.lqUsed--
	}
	if needSQ {
		c.sqUsed--
	}
	if w.d.InSlice && !w.d.Wrong {
		c.inSliceCount--
	}
	t.inflight--
	if w.d.Inst.Op.IsStore() && !w.d.Wrong {
		t.removeStore(w)
	}
	if w.barrierOK || t.barrierUop == w {
		t.barrierUop = nil
		t.barrierWait = false
	}
}
