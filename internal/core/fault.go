package core

import "repro/internal/rob"

// FaultMode selects a deliberately broken recovery variant. The
// differential fuzzer (internal/fuzz) uses these to prove its oracles can
// detect real recovery bugs: with a fault armed, a run of random samples
// must report at least one violation. The faults inject into both
// recovery paths — the selective path through resolveSelective's own
// hooks, and the one full-squash walk (resolveFull, which every policy
// uses outside the selective path) through faultFullFlushVictim. Never
// set outside tests.
type FaultMode int

const (
	// FaultNone runs the correct mechanism.
	FaultNone FaultMode = iota
	// FaultSkipUnlink under-squashes: resolveSelective leaves the first
	// wrong-path uop of every selective flush linked in the ROB, and
	// every full squash re-links its first victim — so a wrong-path uop
	// survives recovery, completes, and commits. Caught by the
	// committed-instruction-count (and often memory) oracles.
	FaultSkipUnlink
	// FaultLeakPending leaks recovery bookkeeping: resolveSelective
	// skips the pendingMisses decrement (the thread stalls forever at
	// its next slice_fence, and CheckQuiescent flags the counter), and
	// every full squash drops its first victim without returning its
	// ROB/RS/LQ/SQ/inflight resources (CheckQuiescent flags the leak,
	// or the starved window hangs into the watchdog).
	FaultLeakPending
)

var faultMode FaultMode

// SetFaultInjection arms (or with FaultNone, disarms) a recovery fault.
// Test-only; the process-global setting is not safe for concurrent cores
// running under different modes.
func SetFaultInjection(m FaultMode) { faultMode = m }

// faultFullFlushVictim applies the armed fault to the first victim of the
// full-squash walk (resolveFull). It returns true when the fault consumed
// the victim, i.e. the caller must skip the normal releaseFlushed for it.
func (c *Core) faultFullFlushVictim(t *thread, u *uop, n *rob.Node[*uop]) bool {
	switch faultMode {
	case FaultSkipUnlink:
		// Under-squash: re-link the victim right after the branch. It
		// stays live, completes, and commits on the wrong path.
		t.list.InsertAfter(&u.node, n)
		return true
	case FaultLeakPending:
		// Squash the victim without returning its resources: ROB space,
		// RS/LQ/SQ slots, and the inflight counter all leak.
		w := n.Val
		w.state = stFlushed
		c.wakeWaiters(w)
		return true
	}
	return false
}
