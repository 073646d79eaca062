package core

import (
	"fmt"
	"strings"

	"repro/internal/flight"
)

func resolvingIdx(mi *missInfo) int {
	if mi == nil {
		return -1
	}
	return mi.fetched
}

// checkInvariants panics when the miss table breaks program order, or
// when per-miss segment accounting breaks: dispatched + in-frontend +
// unfetched must equal the segment length for every resolved miss.
// Enabled in tests via debugChecks.
func (c *Core) checkInvariants() {
	for _, t := range c.threads {
		for i, mi := range t.misses {
			if i > 0 && t.misses[i-1].branchSeq >= mi.branchSeq {
				panic(fmt.Sprintf("core %d @%d: miss table out of order at br=#%d\n%s",
					c.id, c.now, mi.branchSeq, c.DumpState()))
			}
			if mi.state == missPending {
				continue
			}
			inFE := len(mi.feq) - mi.feqHead
			got := mi.dispatched + inFE + (mi.seg.len() - mi.fetched)
			if got != mi.seg.len() {
				panic(fmt.Sprintf("core %d @%d: miss br=#%d accounting broken: disp=%d fe=%d unfetched=%d seg=%d\n%s",
					c.id, c.now, mi.branchSeq, mi.dispatched, inFE,
					mi.seg.len()-mi.fetched, mi.seg.len(), c.DumpState()))
			}
		}
	}
}

// debugChecks enables expensive per-cycle invariant checking.
var debugChecks = false

// EnableDebugChecks turns on per-cycle invariant checking (tests).
func EnableDebugChecks(on bool) { debugChecks = on }

// DumpState renders the core's stall-relevant state for debugging
// deadlocks (used by tests and the sim driver's watchdog). Its first line
// is the core's occupancy snapshot (flight.Sample) plus the number of
// pending completion events.
func (c *Core) DumpState() string {
	var b strings.Builder
	var s flight.Sample
	c.Sample(&s)
	s.Cycle = c.now
	fmt.Fprintf(&b, "%s, events=%d\n", s, len(c.events))
	for _, t := range c.threads {
		fmt.Fprintf(&b, " t%d: mode=%d done=%v haltSeen=%v fence=%v barrier=%v wpStuck=%v pend=%d frq=%d fe=%d inflight=%d stall@%d redirect@%d resolving=%v resolveIdx=%d resolveStall=%v\n",
			t.id, t.mode, t.done, t.haltSeen, t.fenceStall, t.barrierWait, t.wpStuck,
			t.pendingMisses, t.queuedMisses(), len(t.frontend), t.inflight,
			t.fetchStallUntil, t.redirectUntil, t.resolving != nil, resolvingIdx(t.resolving), t.resolving != nil && t.resolving.stall != nil)
		if h := t.list.Head(); h != nil {
			u := h.Val
			fmt.Fprintf(&b, "   head: #%d %v state=%d doneAt=%d mispred=%v wrong=%v resolve=%v splice=%v",
				u.d.Seq, u.d.Inst, u.state, u.doneAt, u.mispred, u.d.Wrong, u.resolvePath, u.spliceHold != nil)
			if u.spliceHold != nil {
				mi := u.spliceHold
				fmt.Fprintf(&b, " hold{%s disp=%d/%d}", mi.state, mi.dispatched, mi.seg.len())
			}
			if u.miss != nil {
				fmt.Fprintf(&b, " miss{%s disp=%d/%d}", u.miss.state, u.miss.dispatched, u.miss.seg.len())
			}
			b.WriteString("\n")
			if u.state == stWaiting {
				for i := 0; i < u.ndeps; i++ {
					r := u.deps[i]
					if r.u != nil && r.u.id == r.id {
						fmt.Fprintf(&b, "   dep[%d]: #%d %v state=%d doneAt=%d\n",
							i, r.u.d.Seq, r.u.d.Inst, r.u.state, r.u.doneAt)
					}
				}
			}
		}
		if len(t.frontend) > 0 {
			u := t.frontend[0]
			fmt.Fprintf(&b, "   feHead: #%d %v wrong=%v resolve=%v readyFE=%d\n",
				u.d.Seq, u.d.Inst, u.d.Wrong, u.resolvePath, u.readyFE)
		}
		for _, mi := range t.misses {
			fmt.Fprintf(&b, "   miss: br=#%d %s fetched=%d/%d disp=%d stall=%v",
				mi.branchSeq, mi.state, mi.fetched, mi.seg.len(), mi.dispatched, mi.stall != nil)
			if n := len(mi.feq) - mi.feqHead; n > 0 {
				w := mi.feq[mi.feqHead]
				fmt.Fprintf(&b, " queued=%d head=#%d %v readyFE=%d priv=%v",
					n, w.d.Seq, w.d.Inst, w.readyFE, c.privileged(t, w))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
