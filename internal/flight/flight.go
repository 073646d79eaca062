// Package flight is the simulator's flight recorder: an opt-in
// observability layer that captures (1) an interval timeline of pipeline
// occupancy (ROB/RS/LQ/SQ/FRQ, holes, fetch stall reason, IPC, per-level
// MPKI), exportable as CSV, and (2) a per-uop pipeline event trace
// (fetch→dispatch→issue→complete→commit timestamps plus the selective-
// flush unlink/splice/recovery events), exportable as Chrome trace_event
// JSON so a selective flush can be watched reorganizing the ROB in
// chrome://tracing or Perfetto.
//
// A nil *Recorder disables everything: the core and sim hot loops guard
// every hook with a single nil check, so a disabled recorder costs
// nothing and changes no output. Events are kept in a bounded ring
// buffer; when a long run wraps the ring, the oldest events are dropped
// (Dropped counts them) — exactly the right shape for the deadlock
// watchdog, which wants the *last* events of each thread.
//
// The recorder is deliberately single-writer: one simulation (one
// sim.Run invocation) owns it. Cores within a run are stepped from one
// goroutine, so no locking is needed; sharing a Recorder across
// concurrent runs is a caller bug.
package flight

// Event names. EvUop is a uop lifetime record (one per committed or
// flushed uop, with per-stage timestamps); the rest are instantaneous
// selective-flush mechanism events.
const (
	// EvUop is one uop's pipeline lifetime (fetch..commit/flush).
	EvUop = "uop"
	// EvUnlink marks one wrong-path uop unlinked from the ROB by a
	// selective flush (§4.2).
	EvUnlink = "sf-unlink"
	// EvSplice marks one resolve-path uop spliced into the linked ROB
	// after the mispredicted branch (§4.2, Fig. 2).
	EvSplice = "sf-splice"
	// EvRecoverSel marks a selective recovery starting: the branch
	// resolved, its wrong path is flushed, and its buffered correct
	// path is pushed onto the FRQ.
	EvRecoverSel = "recover-selective"
	// EvRecoverFull marks a conventional full flush.
	EvRecoverFull = "recover-full"
)

// Event is one recorded pipeline event. All event kinds share the flat
// struct; unused fields stay zero. Timestamps are simulated cycles.
type Event struct {
	TS     int64  // cycle the event was recorded
	Core   int    // core id
	Thread int    // SMT thread id
	Name   string // one of the Ev* constants
	Seq    uint64 // program-order sequence of the subject instruction
	PC     int    // its PC
	Op     string // its mnemonic

	// Uop lifetime timestamps (EvUop only). Dispatch/Issue/Done may be
	// zero for uops flushed before reaching that stage.
	Fetch    int64
	Dispatch int64
	Issue    int64
	Done     int64
	Commit   int64 // commit cycle, or the flush cycle when Flushed

	// Wrong marks wrong-path uops; Resolve marks resolve-path uops;
	// Flushed marks uops that left the pipeline by a flush, not commit;
	// Mispred marks a branch uop the predictor got wrong (EvUop only).
	Wrong   bool
	Resolve bool
	Flushed bool
	Mispred bool

	// N is the event payload: segment length for EvRecoverSel, flushed-
	// uop count for EvRecoverFull, and the mispredicted branch's Seq for
	// EvUnlink/EvSplice (pairing a flush with its splice).
	N int64
}

// Sample is one timeline row: the occupancy/stall snapshot of one core at
// one cycle. Counter fields (Committed and the cache counters feeding the
// MPKI columns) are sampled cumulatively by the core; IPC and MPKI are
// per-interval rates computed by the sim driver.
type Sample struct {
	Cycle int64
	Core  int

	// Window occupancy.
	ROBUsed, ROBGaps, ROBFree int
	RSUsed, LQUsed, SQUsed    int
	// Reserve is the configured §4.7 reservation, for reading the
	// occupancy columns against their effective capacity.
	Reserve int

	// Selective-flush state: in-slice uops in the ROB, FRQ entries, and
	// in-flight holes (resolved misses whose correct paths have not
	// fully entered the ROB), summed over SMT threads.
	InSlice, FRQ, Holes int
	// Outstanding is the number of long-latency loads in flight.
	Outstanding int

	// FetchStall labels why fetch delivered nothing, or "ok".
	FetchStall string

	// Committed is the core's cumulative committed-instruction count.
	Committed uint64
	// IPC is the interval IPC (committed delta / sampling interval).
	IPC float64
	// Interval misses per kilo committed instructions, per level. LLC
	// is chip-wide (the LLC is shared) and repeated on every row.
	L1DMPKI, L2MPKI, LLCMPKI float64
}

// DefaultMaxEvents bounds the event ring when Recorder.MaxEvents is zero.
const DefaultMaxEvents = 1 << 20

// Recorder collects timeline samples and pipeline events for one
// simulation. Configure the exported fields before the run; read the
// results (Samples, Events, writers) after it.
type Recorder struct {
	// Interval is the timeline sampling period in cycles; 0 disables
	// the timeline.
	Interval int64
	// TraceUops records one EvUop lifetime event per committed or
	// flushed uop. High volume — the mechanism events (recoveries,
	// unlinks, splices) are always recorded while the recorder is
	// attached, so leave this off unless exporting a Chrome trace.
	TraceUops bool
	// MaxEvents caps the event ring (0 = DefaultMaxEvents). The oldest
	// events are overwritten once the ring is full.
	MaxEvents int

	samples []Sample
	ring    []Event
	next    int    // overwrite cursor once len(ring) == cap
	total   uint64 // events ever recorded
}

// Record appends an event, overwriting the oldest once the ring is full.
func (r *Recorder) Record(e Event) {
	max := r.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	if len(r.ring) < max {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.next] = e
		r.next++
		if r.next == len(r.ring) {
			r.next = 0
		}
	}
	r.total++
}

// AddSample appends one timeline row.
func (r *Recorder) AddSample(s Sample) { r.samples = append(r.samples, s) }

// Samples returns the timeline rows in recording order.
func (r *Recorder) Samples() []Sample { return r.samples }

// Events returns the retained events in chronological order. The result
// is a copy: mutating it does not affect the recorder.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.ring))
	if r.total <= uint64(len(r.ring)) {
		return append(out, r.ring...)
	}
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// TotalEvents returns how many events were recorded, including dropped.
func (r *Recorder) TotalEvents() uint64 { return r.total }

// Dropped returns how many events the ring overwrote.
func (r *Recorder) Dropped() uint64 {
	if r.total <= uint64(len(r.ring)) {
		return 0
	}
	return r.total - uint64(len(r.ring))
}
