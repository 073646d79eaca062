package core

import (
	"slices"

	"repro/internal/rob"
)

// The miss table. Every live in-slice miss of a thread is an entry of
// thread.misses, kept in program order (by branchSeq) from detection
// until release. The entry's state is the step of the selective path
// (§4.2, §4.6) the miss is on:
//
//	pending  → detected at fetch; its branch has not executed
//	queued   → resolved; its correct path still has to be fetched
//	splicing → fully fetched; not all of it has entered the ROB yet
//	released → out of the table
//
// A miss is released when the last instruction of its segment enters
// the ROB (at once, when the segment is empty), or when a full squash
// cancels it, from any state. releaseMiss is the only way out of the
// table and the only place a miss drops its segment buffer.
//
// Every question about outstanding misses is a walk of the table. The
// oldest hole, whose resolve path alone may use the reserved entries
// (§4.7), is the first entry. The fetch redirect queue (§4.6) is the queued
// entries, and resolve fetch serves the first of them. Resolve dispatch
// tries each entry's resolve channel in table order. A full squash
// cancels the suffix younger than its branch.
//
// Released misses are recycled through the core's free list (newMiss).
// Four uop back-pointers can outlive a miss's release, and each is
// handled:
//   - uop.miss stays on the branch uop until the uop is freed, so a miss
//     re-enters the free list only once it is released and its branch
//     uop has been freed (branchLive). After release only DumpState
//     reads it, and, on a victim branch that FaultSkipUnlink re-linked
//     after a squash cancelled its miss, resolveBranch (the state test)
//     and resolveFull (the checkpoint).
//   - uop.spliceHold is cleared on the cursor when the splice completes,
//     and releaseMiss clears it on a cancelled miss's cursor, which
//     FaultSkipUnlink may have re-linked. So no live uop holds commit
//     for a released miss, and holdsSplice needs no state test.
//   - uop.resolveOf stays on spliced resolve-path uops, but nothing
//     follows it after release: dispatch and the stall-fallback
//     resolution only meet uops of live misses, and DumpState prints
//     only table entries.
//   - uop.wpOf is read only while the uop waits in the frontend (by
//     dispatch, and compared by a resolution's frontend scan), and a
//     miss's frontend wrong-path uops are all dropped when it resolves
//     or is cancelled, so the miss is still pending.

// missState is a miss's step on the selective path.
type missState uint8

const (
	missPending missState = iota
	missQueued
	missSplicing
	missReleased
)

func (s missState) String() string {
	return [...]string{"pending", "queued", "splicing", "released"}[s]
}

// missInfo describes one in-slice branch miss: everything a fetch
// redirect queue entry carries (§4.6) plus the correct-path segment the
// core buffered at detection. missInfos are pooled per core; a recycled
// one keeps its feq and wp capacity and its rtbl allocation.
type missInfo struct {
	state missState
	// branchSeq is the branch's program-order position. The branch uop
	// is pooled and may be recycled once it commits, so the miss keeps
	// no pointer to it.
	branchSeq uint64
	// branchLive is set while the branch uop points here (uop.miss):
	// a released miss returns to the free list only once it is clear.
	branchLive bool
	// seg is the correct-path remainder of the slice (including the
	// closing slice_end marker), executed functionally at detection
	// time and delivered to the pipeline at resolution. It is a view of
	// a segment buffer, which a nested miss's view shares (segment.go).
	seg segment
	// wp records the wrong-path uops dispatched for this miss, to be
	// selectively flushed at resolution.
	wp []*uop
	// ck is the rename checkpoint at the branch (CP1 in Fig. 2);
	// rtbl is the segment's private rename table, seeded from ck when
	// the first resolve-path uop dispatches (rtblSeeded), so the regular
	// stream's table never sees resolve-path renamings (the
	// regular-fetch checkpoint CP2 "does not contain the renamings made
	// after dispatching the resolved path", §4.2).
	ck         renameSnapshot
	ckValid    bool
	rtbl       *renameTable
	rtblSeeded bool
	// insertPos is the splice cursor: the next resolve-path uop is
	// inserted into the linked ROB after it.
	insertPos *rob.Node[*uop]
	// fetched and dispatched count the segment instructions delivered
	// to the frontend and into the ROB (resolve fetch can be preempted
	// by an older miss and resumed).
	fetched    int
	dispatched int
	// feq is the resolve channel: this miss's fetched-but-undispatched
	// resolve-path uops in segment order, with feqHead the consumed
	// prefix (an index cursor, so dispatch pops cost O(1)).
	feq     []*uop
	feqHead int
	// stall is a mispredicted branch inside this resolve path; fetching
	// the rest of the segment waits for it to resolve.
	stall *uop
}

// holdsSplice reports whether u is the splice cursor of a miss whose
// correct path has not fully entered the ROB: it must not commit (and be
// unlinked) while later resolve-path instructions still need to be
// inserted after it.
func (u *uop) holdsSplice() bool { return u.spliceHold != nil }

// addMiss enters a newly detected miss into t's table as pending. A miss
// detected in the regular stream is the youngest so far and appends; a
// nested miss, detected inside an older miss's resolve path, lands ahead
// of the younger entries.
func (t *thread) addMiss(mi *missInfo) {
	i := len(t.misses)
	for i > 0 && t.misses[i-1].branchSeq > mi.branchSeq {
		i--
	}
	t.misses = slices.Insert(t.misses, i, mi)
	t.pendingMisses++
}

// newMiss takes a cleared miss from the free list for u, the
// mispredicted branch that detected it, and links it to u.miss.
func (c *Core) newMiss(u *uop) *missInfo {
	var mi *missInfo
	if n := len(c.missPool); n > 0 {
		mi = c.missPool[n-1]
		c.missPool = c.missPool[:n-1]
		*mi = missInfo{wp: mi.wp[:0], feq: mi.feq[:0], rtbl: mi.rtbl}
	} else {
		c.missesMade++
		mi = &missInfo{}
	}
	mi.branchSeq = u.d.Seq
	mi.branchLive = true
	u.miss = mi
	return mi
}

// branchFreed records that mi's branch uop was freed, recycling mi if it
// was already released.
func (c *Core) branchFreed(mi *missInfo) {
	mi.branchLive = false
	if mi.state == missReleased {
		c.missPool = append(c.missPool, mi)
	}
}

// releaseMiss takes mi out of t's table and drops its view of the
// segment buffer, which returns to the free list when mi was its last
// holder. A miss cancelled while pending also leaves the pending count;
// a cancelled miss's splice cursor stops holding commit. Releasing a
// miss twice is a bookkeeping bug and panics.
func (c *Core) releaseMiss(t *thread, mi *missInfo) {
	if mi.state == missReleased {
		panic("core: miss released twice")
	}
	if mi.state == missPending {
		t.pendingMisses--
	}
	mi.state = missReleased
	i := slices.Index(t.misses, mi)
	t.misses = slices.Delete(t.misses, i, i+1)
	if p := mi.insertPos; p != nil && p.Val.spliceHold == mi {
		p.Val.spliceHold = nil
	}
	if b := mi.seg.buf; b != nil {
		mi.seg.buf = nil
		c.dropSeg(b)
	}
	if !mi.branchLive {
		c.missPool = append(c.missPool, mi)
	}
}

// cancelMiss releases a miss whose branch a full squash removed, first
// discarding the resolve-path uops still waiting in its channel.
func (c *Core) cancelMiss(t *thread, mi *missInfo) {
	for _, w := range mi.feq[mi.feqHead:] {
		c.freeUop(w)
	}
	mi.feq, mi.feqHead = mi.feq[:0], 0
	c.releaseMiss(t, mi)
}

// queuedMisses returns the fetch redirect queue's occupancy: the misses
// resolved whose correct paths are still being fetched.
func (t *thread) queuedMisses() int {
	n := 0
	for _, mi := range t.misses {
		if mi.state == missQueued {
			n++
		}
	}
	return n
}

// startNextResolve points resolve fetch at the first queued miss, the
// program-order-oldest FRQ entry (preempting a younger one if an older
// branch just resolved), or at nothing. The paper's FIFO discipline
// assumes detection order matches the order commit needs; servicing
// oldest-first implements the stated intent — "the oldest instructions
// are executed first, such that commit is not needlessly blocked"
// (§4.6) — and is what makes the §4.7 deadlock-freedom argument hold
// (see DESIGN.md).
func (t *thread) startNextResolve() {
	t.resolving = nil
	for _, mi := range t.misses {
		if mi.state == missQueued {
			t.resolving = mi
			return
		}
	}
}

// oldestHoleSeq returns the branch sequence number of the oldest live
// miss: every entry of the table is, or will become, a hole in the ROB.
// Only a resolve path at least as old as every such miss may consume the
// reserved resources — it is guaranteed to drain into commit, which is
// what makes reserving "a single resource of each" deadlock-free (§4.7).
// A younger path must leave the reserved entries alone, because an older
// hole may still claim them.
func (t *thread) oldestHoleSeq() uint64 {
	if len(t.misses) == 0 {
		return ^uint64(0)
	}
	return t.misses[0].branchSeq
}
