package core

import (
	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/rename"
	"repro/internal/rob"
)

// uopState tracks a micro-op through the pipeline.
type uopState uint8

const (
	stFrontend uopState = iota // fetched, waiting to dispatch
	stWaiting                  // dispatched, in RS, waiting for operands
	stIssued                   // executing
	stDone                     // result available at doneAt
	stCommitted
	stFlushed
)

// uop is one in-flight micro-op. uops are pooled; id disambiguates
// recycled objects (see depRef).
type uop struct {
	id uint64
	d  emu.DynInst
	t  *thread

	node  rob.Node[*uop]
	state uopState

	// Dependences: producers of the source registers plus, for loads,
	// the store being forwarded from.
	deps  [4]depRef
	ndeps int

	// Wakeup-driven scheduling state: dependents to notify when this uop
	// completes or is flushed, and this uop's own count of outstanding
	// operands (it enters the ready queue when it reaches zero). waiters
	// keeps its capacity across pool recycling.
	waiters   []waiter
	waitCount int
	// dispSeq is the core-wide dispatch order, the tie-break that makes
	// age-ordered selection deterministic (ages collide across SMT
	// threads and within a miss's wrong path).
	dispSeq uint64

	readyFE    int64 // cycle the uop may leave the frontend
	doneAt     int64
	issueCycle int64
	// fetchCycle/dispCycle are recorded only while a flight recorder
	// with TraceUops is attached (zero otherwise).
	fetchCycle int64
	dispCycle  int64
	// age is the logical-age key for oldest-first issue selection:
	// the program-order sequence for correct-path uops, and the
	// mispredicted branch's sequence for its wrong-path uops.
	age uint64

	// Branch bookkeeping.
	pred      bpred.Pred
	predTaken bool
	mispred   bool
	miss      *missInfo

	// fwdStore is the store this load forwards from, when any.
	fwdStore depRef

	// resolvePath marks correct-path instructions fetched to resolve an
	// in-slice miss; they may use reserved resources (§4.7).
	resolvePath bool
	reduce      bool
	// wpOf links a wrong-path uop to the in-slice miss it belongs to
	// (nil for conventional wrong paths).
	wpOf *missInfo
	// resolveOf links a resolve-path uop to the miss whose correct path
	// it restores.
	resolveOf *missInfo
	// spliceHold marks this uop as the current splice cursor of a miss
	// (see holdsSplice).
	spliceHold *missInfo
	// ck is the rename checkpoint taken at dispatch of a branch known
	// to be mispredicted (conventional recovery restores it).
	ck *renameSnapshot
	// barrierOK is set when the simulator releases this barrier uop.
	barrierOK bool
	// tombstone marks a splice cursor that has retired (resources
	// freed, stats counted) but stays linked as the order boundary
	// until the next resolve-path instruction is spliced after it.
	tombstone bool
	// lowConf marks a fetched conditional branch predicted below the
	// fetch-gate confidence; cleared (and the thread's lowConfOut
	// decremented) when the branch resolves or the uop is freed.
	lowConf bool
	// drainHold marks the boundary branch of a staged flush: it must not
	// commit while parked victims are still draining behind it.
	drainHold bool
}

// depRef is a validity-checked reference to a producing uop: if the uop
// was recycled (id mismatch) or has produced its result, the dependence is
// satisfied.
type depRef struct {
	u  *uop
	id uint64
}

func (r depRef) ready(now int64) bool {
	if r.u == nil || r.u.id != r.id {
		return true
	}
	switch r.u.state {
	case stDone, stCommitted:
		return r.u.doneAt <= now
	case stFlushed:
		return true
	}
	return false
}

// waiter is one entry on a producer's wakeup list: the dependent uop,
// validity-checked by id like depRef (the dependent may be flushed and
// recycled while the producer is still executing).
type waiter struct {
	u  *uop
	id uint64
}

// readyRef is one entry of the ready queue or specials list, id-checked
// the same way. seq is the uop's dispSeq when it was enqueued, the ready
// queue's order key: a stale entry keeps its place even after its uop is
// recycled under a new dispSeq.
type readyRef struct {
	u   *uop
	id  uint64
	seq uint64
}

// renameRef is the rename-table entry type.
type renameRef = depRef

// renameSnapshot aliases the rename checkpoint type.
type renameSnapshot = rename.Snapshot[renameRef]

// renameTable aliases the rename table type.
type renameTable = rename.Table[renameRef]

func makeRef(u *uop) renameRef {
	if u == nil {
		return renameRef{}
	}
	return renameRef{u: u, id: u.id}
}

// event is a scheduled completion.
type event struct {
	at int64
	u  *uop
	id uint64
}

// eventHeap is a concrete binary min-heap on event.at. The sift logic
// mirrors container/heap exactly (same child-selection tie-breaks), so
// the pop order of equal-time events — which the issue stage's selection
// can observe — is identical to the previous container/heap version,
// without the interface boxing that allocated on every push and pop.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].at < s[i].at) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift down over s[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].at < s[j1].at {
			j = j2
		}
		if !(s[j].at < s[i].at) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	*h = s[:n]
	return e
}

func (c *Core) schedule(u *uop, at int64) {
	c.events.push(event{at: at, u: u, id: u.id})
}

// uop pool.

// newUop takes a cleared uop for t from the pool and counts it fetched.
// The caller writes the instruction record into u.d: the uop owns its
// DynInst, and every frontend steps straight into it.
func (c *Core) newUop(t *thread) *uop {
	var u *uop
	if n := len(c.pool); n > 0 {
		u = c.pool[n-1]
		c.pool = c.pool[:n-1]
		w := u.waiters
		*u = uop{}
		u.waiters = w[:0]
	} else {
		u = &uop{}
	}
	c.nextID++
	u.id = c.nextID
	u.t = t
	u.node.Val = u
	c.stats.UopsFetched++
	if c.rec != nil && c.rec.TraceUops {
		u.fetchCycle = c.now
	}
	return u
}

// unfetch returns a uop whose wrong-path step produced no instruction to
// the pool uncounted, undoing newUop's id and fetch count so both
// sequences read as if it had never been taken.
func (c *Core) unfetch(u *uop) {
	c.nextID--
	c.stats.UopsFetched--
	c.pool = append(c.pool, u)
}

func (c *Core) freeUop(u *uop) {
	if u.node.InList() {
		panic("core: freeing linked uop")
	}
	switch u.state {
	case stFrontend:
		c.stats.UopsFEDiscarded++
	case stFlushed:
		c.stats.UopsSquashed++
	}
	if u.lowConf {
		u.lowConf = false
		u.t.lowConfOut--
	}
	if u.ck != nil {
		c.ckPool = append(c.ckPool, u.ck)
		u.ck = nil
	}
	if u.miss != nil {
		c.branchFreed(u.miss)
		u.miss = nil
	}
	u.t = nil
	u.waiters = u.waiters[:0]
	c.pool = append(c.pool, u)
}

// Checkpoint free list: the rename snapshot a conventional miss takes at
// dispatch (uop.ck) comes from here and returns when the miss restores
// it (resolveFull) or its uop is freed unresolved (freeUop).

func (c *Core) getCheckpoint() *renameSnapshot {
	if n := len(c.ckPool); n > 0 {
		ck := c.ckPool[n-1]
		c.ckPool = c.ckPool[:n-1]
		return ck
	}
	return new(renameSnapshot)
}
