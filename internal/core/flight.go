package core

import "repro/internal/flight"

// This file is the core's side of the flight recorder (internal/flight):
// structured event emission from the pipeline stages and the occupancy
// snapshot the timeline sampler and the deadlock watchdog both read.
// Every hook is gated on c.rec != nil, so an unattached recorder costs
// one pointer comparison.

// recordUop emits a uop lifetime event at the end of the uop's life —
// commit or flush — carrying its per-stage timestamps.
func (c *Core) recordUop(u *uop, flushed bool) {
	if !c.rec.TraceUops {
		return
	}
	c.rec.Record(flight.Event{
		Name: flight.EvUop, TS: u.fetchCycle,
		Core: c.id, Thread: u.t.id,
		Seq: u.d.Seq, PC: u.d.PC, Op: u.d.Inst.Op.String(),
		Fetch: u.fetchCycle, Dispatch: u.dispCycle,
		Issue: u.issueCycle, Done: u.doneAt, Commit: c.now,
		Wrong: u.d.Wrong, Resolve: u.resolvePath, Flushed: flushed,
		Mispred: u.mispred,
	})
}

// recordMechanism emits a selective-flush mechanism event (unlink,
// splice, recovery). These are always recorded while a recorder is
// attached — they are low-volume and are what the watchdog's last-K tail
// needs to explain a stall.
func (c *Core) recordMechanism(name string, t *thread, u *uop, n int64) {
	e := flight.Event{Name: name, TS: c.now, Core: c.id, Thread: t.id, N: n}
	if u != nil {
		e.Seq = u.d.Seq
		e.PC = u.d.PC
		e.Op = u.d.Inst.Op.String()
		e.Wrong = u.d.Wrong
		e.Resolve = u.resolvePath
	}
	c.rec.Record(e)
}

// Sample fills the core-occupancy fields of a timeline sample: window
// usage, selective-flush state summed over SMT threads, and the fetch
// stall label. The sim driver fills cycle/IPC/MPKI.
func (c *Core) Sample(s *flight.Sample) {
	s.Core = c.id
	s.ROBUsed = c.space.Used()
	s.ROBGaps = c.space.Gaps()
	s.ROBFree = c.space.Free()
	s.RSUsed = c.rsUsed
	s.LQUsed = c.lqUsed
	s.SQUsed = c.sqUsed
	s.Reserve = c.cfg.Reserve
	s.InSlice = c.inSliceCount
	s.Outstanding = len(c.longUntil)
	for _, t := range c.threads {
		for _, mi := range t.misses {
			switch mi.state {
			case missQueued:
				s.FRQ++
				s.Holes++
			case missSplicing:
				s.Holes++
			}
		}
	}
	s.FetchStall = c.fetchStallReason()
	s.Committed = c.stats.Committed
}

// fetchStallReason labels why the first live thread's fetch is (or is
// not) delivering instructions, mirroring the conditions of
// pickFetchThread/nextFetchPC. With SMT the label describes the first
// unfinished thread — a summary, not a per-thread report.
func (c *Core) fetchStallReason() string {
	var t *thread
	for _, tt := range c.threads {
		if !tt.done {
			t = tt
			break
		}
	}
	switch {
	case t == nil:
		return "done"
	case t.barrierWait:
		return "barrier"
	case t.fenceStall:
		return "fence"
	case t.mode == fmWrong && (t.wpStuck || t.shadow == nil || t.shadow.Dead()):
		return "wrong-path-stall"
	case t.mode == fmWrong:
		return "wrong-path"
	case t.resolving != nil && t.resolving.stall != nil:
		return "resolve-stall"
	case t.resolving != nil:
		return "resolve"
	case c.now < t.redirectUntil:
		return "refill"
	case c.now < t.fetchStallUntil:
		return "fetch-stall"
	case len(t.frontend) >= c.cfg.FrontendQueue:
		return "fe-full"
	case t.haltSeen:
		return "halted"
	default:
		return "ok"
	}
}
