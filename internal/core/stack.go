package core

import "repro/internal/isa"

// accountCycle attributes the current cycle to the cycle-stack components
// of Fig. 5. Each cycle contributes CommitWidth slots: committed slots are
// 'exec'; the remainder goes to the cause blocking the oldest in-flight
// instruction (or, with an empty window, to the frontend condition):
//
//   - mem:    head is a load/atomic waiting for data,
//   - branch: recovering from a misprediction (wrong-path fetch, resolve-
//     path fetch, refill after a flush, a hole awaiting its resolved
//     path, or a fence stall caused by pending in-slice misses),
//   - exec:   head is executing a non-memory operation, or commit
//     bandwidth was partially used,
//   - other:  frontend-limited for any other reason (I-cache, startup,
//     barrier synchronization).
func (c *Core) accountCycle() {
	w := float64(c.cfg.CommitWidth)
	frac := float64(c.committedThisCycle) / w
	if frac > 1 {
		frac = 1
	}
	c.stats.StackExec += frac
	rem := 1 - frac
	if rem <= 0 {
		return
	}

	t, head := c.oldestHead()
	if head != nil && head.holdsSplice() {
		c.stats.HoldSplice++
	}
	switch c.classifyStall(t, head) {
	case stallMem:
		c.stats.StackMem += rem
		c.stats.HoldMem++
	case stallBranch:
		c.stats.StackBranch += rem
	case stallExec:
		c.stats.StackExec += rem
	default:
		c.stats.StackOther += rem
	}
}

type stallCause uint8

const (
	stallOther stallCause = iota
	stallExec
	stallMem
	stallBranch
)

// oldestHead picks the thread whose commit is most blocked: the first
// live thread with in-flight instructions (thread 0 preference matches
// the single-thread runs the cycle stacks are reported for).
func (c *Core) oldestHead() (*thread, *uop) {
	var fallback *thread
	for _, t := range c.threads {
		if t.done {
			continue
		}
		if fallback == nil {
			fallback = t
		}
		if h := t.list.Head(); h != nil {
			return t, h.Val
		}
	}
	return fallback, nil
}

func (c *Core) classifyStall(t *thread, head *uop) stallCause {
	if t == nil {
		return stallOther
	}
	if head == nil {
		// Empty window: the frontend is the bottleneck.
		switch {
		case t.barrierWait:
			return stallOther
		case c.now < t.redirectUntil, t.shadow != nil, t.wpStuck,
			t.resolving != nil, t.fenceStall:
			return stallBranch
		default:
			return stallOther
		}
	}
	// The splice cursor holding commit for the rest of its resolved
	// path, or a mispredicted branch awaiting resolution.
	if head.holdsSplice() {
		return stallBranch
	}
	// The boundary branch of a partial flush holding commit while the
	// parked victims drain: misprediction-recovery time.
	if head.drainHold {
		return stallBranch
	}
	switch head.state {
	case stIssued:
		switch head.d.Inst.Op.Class() {
		case isa.ClassLoad, isa.ClassAtomic:
			return stallMem
		case isa.ClassBranch:
			return stallBranch
		default:
			return stallExec
		}
	case stWaiting:
		if head.d.Inst.Op == isa.Barrier {
			return stallOther
		}
		return stallExec
	default:
		// Done but commit bandwidth ran out, or about to commit.
		return stallExec
	}
}
