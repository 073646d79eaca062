package core

import (
	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/rename"
	"repro/internal/rob"
)

// fetchMode is the thread's current instruction source.
type fetchMode uint8

const (
	fmNormal fetchMode = iota // the correct-path trace (the Machine)
	fmWrong                   // a wrong path (the Shadow)
)

// thread is one hardware context: its architectural machine (trace
// source), predictor state, rename table, logical-order ROB list, frontend
// queue, miss table, and the selective-flush fetch state machine.
type thread struct {
	id int
	c  *Core

	m    emu.Frontend
	pred bpred.Predictor
	btb  *bpred.BTB

	rt   rename.Table[renameRef]
	list rob.List[*uop]
	// misses is the miss table: every live in-slice miss in program
	// order, from detection until release (see miss.go).
	misses []*missInfo

	// frontend is the regular fetch queue's live window; feBuf is its
	// whole backing array, where enqueue moves the window back to when
	// dispatch's pops have walked it to the end.
	frontend []*uop
	feBuf    []*uop

	// Fetch source state. shadow is the engine the frontend's last Fork
	// returned; the frontend re-seeds that one engine on every Fork, so
	// it is valid until the next mispredict forks again.
	mode       fetchMode
	shadow     emu.WrongPath
	shadowMiss *missInfo // in-slice miss whose wrong path is being fetched
	convMiss   *uop      // pending conventional miss: fetch stalls on its shadow
	wpStuck    bool      // shadow died before reaching its slice_end
	// wrongDir is the shadow's branch-direction callback, built once:
	// rebuilding the closure per fetchWrong call would heap-allocate per
	// wrong-path instruction, because StepInto is an interface call and
	// escape analysis cannot see through emu.WrongPath.
	wrongDir emu.BranchDir

	// resolving is the resolve-fetch target, the first queued miss
	// (startNextResolve).
	resolving *missInfo

	pendingMisses int // in-slice misses detected but not yet resolved
	fenceStall    bool
	barrierWait   bool
	barrierUop    *uop
	haltSeen      bool
	done          bool // halt committed; thread finished

	inflight        int    // dispatched, not yet committed (ICOUNT fetch policy)
	wpAge           uint64 // logical age assigned to wrong-path uops
	fetchStallUntil int64
	redirectUntil   int64 // refill window after a conventional flush
	lastILine       int

	stores []*uop // in-flight correct-path stores, program order

	// Staged-drain state under a squash depth (partial:N): victims
	// beyond the depth are parked here at resolution and released
	// Core.squashDepth per cycle, oldest first (drainQ[drainHead:] is the
	// live window). The boundary branch holds commit (uop.drainHold)
	// until the drain ends.
	drainQ          []*uop
	drainHead       int
	drainBoundary   *uop
	drainBoundaryID uint64

	// lowConfOut counts fetched-but-unresolved branches predicted below
	// Core.gateConf; while it is non-zero, fetch narrows to one slot.
	lowConfOut int
}

// drainLen returns the number of parked victims not yet released.
func (t *thread) drainLen() int { return len(t.drainQ) - t.drainHead }

func newThread(id int, c *Core, m emu.Frontend) *thread {
	t := &thread{
		id:        id,
		c:         c,
		m:         m,
		pred:      bpred.New(c.cfg.Predictor),
		btb:       bpred.NewBTB(c.cfg.BTBSets, c.cfg.BTBWays),
		lastILine: -1,
	}
	t.wrongDir = func(pc int, in isa.Inst, actual bool) bool {
		// Wrong-path branches follow the shadow's own outcomes: the
		// fork inherits real register values, so near-reconvergence
		// wrong paths (the common case for slice bodies) terminate
		// where the real wrong path would. The predictor still sees
		// the fetched direction in its speculative history but is
		// never trained on wrong-path branches (see DESIGN.md).
		t.pred.OnFetch(actual)
		return actual
	}
	return t
}

// finishedFetching reports whether the thread will produce no more
// instructions.
func (t *thread) finishedFetching() bool { return t.haltSeen || t.done }

// active reports whether the thread still has work in flight or to fetch.
func (t *thread) active() bool { return !t.done }

// nextFetchPC peeks the PC the current source would fetch next, or -1 if
// the source cannot produce an instruction right now.
func (t *thread) nextFetchPC() int {
	if t.resolving != nil && t.resolving.stall == nil {
		if mi := t.resolving; mi.fetched < mi.seg.len() {
			return mi.seg.pc(mi.fetched)
		}
		return -1
	}
	if t.mode == fmWrong {
		if t.wpStuck || t.shadow == nil || t.shadow.Dead() {
			return -1
		}
		return t.shadow.NextPC()
	}
	if t.fenceStall || t.barrierWait || t.haltSeen || t.m.Halted() {
		return -1
	}
	return t.m.NextPC()
}
