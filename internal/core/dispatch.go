package core

import (
	"repro/internal/flight"
	"repro/internal/isa"
)

// dispatch renames and inserts fetched instructions into the window, up to
// DispatchWidth per cycle, round-robin across SMT threads.
//
// Each thread has two frontend streams: the regular stream (frontend) and
// the resolve-path stream (one FIFO per miss in the miss table), which
// carries correct paths being spliced after selective flushes. The
// resolve stream has dispatch priority — it is the commit-critical path,
// and in the paper's hardware regular fetch is parked at the
// regular-fetch checkpoint while the resolved path flows through the
// pipeline. Within the resolve stream, the program-order-oldest hole's
// instructions are privileged: only they may consume the reserved
// RS/LQ/SQ/ROB entries (§4.7), which is what makes the reservation
// deadlock-free.
func (c *Core) dispatch() {
	slots := c.cfg.DispatchWidth
	for slots > 0 {
		progressed := false
		for i := 0; i < len(c.threads) && slots > 0; i++ {
			t := c.threads[(c.dispatchRR+i)&(len(c.threads)-1)]
			if c.dispatchResolve(t) {
				slots--
				progressed = true
				continue
			}
			if c.dispatchRegular(t) {
				slots--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	c.dispatchRR++
}

// dispatchResolve dispatches one resolve-path instruction. Instructions
// of one miss dispatch in segment order, but distinct misses' segments
// may interleave, so multiple holes drain concurrently. Only the oldest
// hole's path may take the reserved entries (§4.7 reserves them "for
// resolving correct paths"), which is the deadlock-freedom guarantee.
func (c *Core) dispatchResolve(t *thread) bool {
	// Each miss keeps its own fetched-instruction FIFO (missInfo.feq);
	// the candidates are the queue heads whose frontend delay expired.
	// Dispatch oldest-miss-first, in table order: the oldest hole is the
	// commit-critical path and gets the dispatch bandwidth; younger holes
	// fill spare slots. A successful dispatch may release its miss, so
	// the walk ends there.
	for _, mi := range t.misses {
		if mi.feqHead == len(mi.feq) {
			continue
		}
		u := mi.feq[mi.feqHead]
		if u.readyFE <= c.now && c.tryDispatch(t, u) {
			return true
		}
	}
	return false
}

// dispatchRegular dispatches the head of the regular frontend queue.
func (c *Core) dispatchRegular(t *thread) bool {
	if len(t.frontend) == 0 {
		return false
	}
	u := t.frontend[0]
	if u.readyFE > c.now {
		return false
	}
	if !c.tryDispatch(t, u) {
		return false
	}
	t.frontend = t.frontend[1:]
	return true
}

// resourceNeeds returns which queues the uop occupies.
func resourceNeeds(op isa.Op) (lq, sq bool) {
	switch {
	case op.IsLoad():
		return true, false
	case op.IsStore():
		return false, true
	case op.IsAtomic():
		return true, true
	}
	return false, false
}

// privileged reports whether u may use the reserved resources: it is a
// resolve-path instruction of the program-order-oldest unfinished hole
// (no older hole exists, resolved or pending).
func (c *Core) privileged(t *thread, u *uop) bool {
	if !u.resolvePath {
		return false
	}
	return u.resolveOf.branchSeq <= t.oldestHoleSeq()
}

// tryDispatch attempts to rename and insert u. It returns false when
// resources are unavailable (the caller retries later); marker
// instructions always succeed (they are discarded at dispatch, consuming
// only the slot).
func (c *Core) tryDispatch(t *thread, u *uop) bool {
	op := u.d.Inst.Op

	// Slice markers take a dispatch slot and vanish (Fig. 6 overhead).
	if op.IsSlice() || op == isa.Nop {
		if u.d.Wrong {
			c.stats.DispWrong++
		} else {
			c.stats.DispOverhead++
		}
		if u.resolvePath {
			c.noteResolveDispatched(t, u.resolveOf)
		}
		c.freeUop(u)
		c.activity = true
		return true
	}

	// Resource admission (§4.7): Reserve entries of each resource are
	// kept for the program-order-oldest hole's resolve path, which
	// drains straight into commit — "reserving a single resource of
	// each suffices to prevent deadlocks". Regular instructions and
	// younger holes' resolve paths leave them free; younger paths
	// sharing them would crowd the commit-critical path (DESIGN.md,
	// deviation 2). For regular instructions the reservation is active
	// while in-slice instructions are in the ROB or any miss is live:
	// segments still to be spliced will need the reserved entries even
	// after a fence let post-region code proceed.
	active := c.selEligible &&
		(c.inSliceCount > 0 || t.pendingMisses > 0 || len(t.misses) > 0)
	reserve := 0
	if u.resolvePath && !c.privileged(t, u) || !u.resolvePath && active {
		reserve = c.cfg.Reserve
	}
	needLQ, needSQ := resourceNeeds(op)
	if c.space.Free() <= reserve {
		return false
	}
	if c.rsUsed >= c.cfg.RS-reserve {
		return false
	}
	if needLQ && c.lqUsed >= c.cfg.LQ-reserve {
		return false
	}
	if needSQ && c.sqUsed >= c.cfg.SQ-reserve {
		return false
	}

	// Allocate.
	if !c.space.Alloc() {
		return false
	}
	c.rsUsed++
	if needLQ {
		c.lqUsed++
	}
	if needSQ {
		c.sqUsed++
	}

	// Rename: resolve-path instructions use the segment's private table
	// seeded from the branch checkpoint (CP1); everything else uses the
	// thread's live table.
	tbl := &t.rt
	if u.resolvePath {
		mi := u.resolveOf
		if !mi.rtblSeeded {
			if mi.rtbl == nil {
				mi.rtbl = new(renameTable)
			}
			mi.rtbl.Restore(mi.ck)
			mi.rtblSeeded = true
		}
		tbl = mi.rtbl
	}
	c.renameDeps(t, u, tbl)

	// Branches known to be mispredicted checkpoint the rename table for
	// recovery (CP1 / conventional restore point). Nested misses inside
	// a resolve path checkpoint the segment's private table.
	if u.mispred {
		switch {
		case u.miss != nil:
			u.miss.ck = tbl.Checkpoint()
			u.miss.ckValid = true
		case !u.resolvePath:
			u.ck = c.getCheckpoint()
			*u.ck = t.rt.Checkpoint()
		}
	}

	// Insert into the logical-order linked ROB, advancing the splice
	// cursor (and its commit boundary) to the newly inserted entry; a
	// cursor that already retired into a tombstone is unlinked now.
	if u.resolvePath {
		mi := u.resolveOf
		if c.rec != nil {
			c.recordMechanism(flight.EvSplice, t, u, int64(mi.branchSeq))
		}
		t.list.InsertAfter(mi.insertPos, &u.node)
		prev := mi.insertPos.Val
		prev.spliceHold = nil
		if prev.tombstone {
			t.list.Remove(&prev.node)
			c.freeUop(prev)
		}
		mi.insertPos = &u.node
		u.spliceHold = mi
		c.noteResolveDispatched(t, mi)
	} else {
		t.list.PushBack(&u.node)
	}

	if u.wpOf != nil {
		u.wpOf.wp = append(u.wpOf.wp, u)
	}
	if u.d.InSlice && !u.d.Wrong {
		c.inSliceCount++
	}

	u.state = stWaiting
	if c.rec != nil && c.rec.TraceUops {
		u.dispCycle = c.now
	}
	u.dispSeq = c.dispSeqCtr
	c.dispSeqCtr++
	if c.forceCyc {
		c.rs = append(c.rs, u)
	} else {
		c.registerWakeups(u)
	}
	t.inflight++
	if op.IsStore() && !u.d.Wrong {
		t.stores = append(t.stores, u)
	}
	if u.d.Wrong {
		c.stats.DispWrong++
	} else {
		c.stats.DispCorrect++
	}
	c.activity = true
	return true
}

// noteResolveDispatched pops the head of mi's resolve channel, which just
// dispatched. Once the whole segment has entered the ROB the splice is
// complete: the cursor stops holding commit (a cursor that already
// retired into a tombstone is unlinked now) and the miss is released.
func (c *Core) noteResolveDispatched(t *thread, mi *missInfo) {
	mi.feq[mi.feqHead] = nil
	if mi.feqHead++; mi.feqHead == len(mi.feq) {
		// Drained (for now): rewind, keeping the capacity for a later
		// resume of this miss.
		mi.feq, mi.feqHead = mi.feq[:0], 0
	}
	if mi.dispatched++; mi.dispatched < mi.seg.len() {
		return
	}
	cur := mi.insertPos.Val
	cur.spliceHold = nil
	if cur.tombstone {
		t.list.Remove(&cur.node)
		c.freeUop(cur)
	}
	c.releaseMiss(t, mi)
}

// renameDeps records the uop's operand producers from the rename table and
// registers the uop as producer of its destination.
func (c *Core) renameDeps(t *thread, u *uop, tbl *renameTable) {
	in := u.d.Inst
	regs, n := in.Reads()
	for _, r := range regs[:n] {
		ref := tbl.Producer(r)
		if ref.u != nil && u.ndeps < len(u.deps) {
			u.deps[u.ndeps] = ref
			u.ndeps++
		}
	}

	// Load-store forwarding: depend on the youngest older in-flight
	// store that overlaps this load's address.
	if (in.Op.IsLoad() || in.Op.IsAtomic()) && !u.d.Wrong {
		if s := t.youngestOlderStore(u); s != nil {
			u.fwdStore = makeRef(s)
			if u.ndeps < len(u.deps) {
				u.deps[u.ndeps] = u.fwdStore
				u.ndeps++
			}
		}
	}

	// Reduction updates are not renamed (§4.5): they read and write
	// architectural registers at the head of the ROB.
	if in.Op.HasDst() && !u.reduce {
		tbl.SetProducer(in.Dst, makeRef(u))
	}
}

// youngestOlderStore finds the in-flight store this load would forward
// from, by program order (Seq) and address overlap.
func (t *thread) youngestOlderStore(u *uop) *uop {
	lo := u.d.Addr
	hi := lo + uint64(u.d.Inst.Op.MemSize())
	var best *uop
	for _, s := range t.stores {
		if s.state == stCommitted || s.state == stFlushed {
			continue
		}
		if s.d.Seq >= u.d.Seq {
			continue
		}
		sLo := s.d.Addr
		sHi := sLo + uint64(s.d.Inst.Op.MemSize())
		if sLo < hi && lo < sHi {
			if best == nil || s.d.Seq > best.d.Seq {
				best = s
			}
		}
	}
	return best
}
