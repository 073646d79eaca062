package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// timelineHeader is the CSV column order of WriteTimelineCSV. Versioned
// with the metrics schema (see the blp package's MetricsSchemaVersion):
// columns are append-only within a schema version.
var timelineHeader = []string{
	"cycle", "core",
	"rob_used", "rob_gaps", "rob_free",
	"rs_used", "lq_used", "sq_used", "reserve",
	"in_slice", "frq", "holes", "outstanding",
	"fetch_stall", "committed", "ipc",
	"l1d_mpki", "l2_mpki", "llc_mpki",
}

// WriteTimelineCSV renders the timeline samples as CSV, one row per core
// per sampling interval.
func (r *Recorder) WriteTimelineCSV(w io.Writer) error {
	if _, err := io.WriteString(w, strings.Join(timelineHeader, ",")+"\n"); err != nil {
		return err
	}
	for _, s := range r.samples {
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d,%.4f,%s,%s,%s\n",
			s.Cycle, s.Core,
			s.ROBUsed, s.ROBGaps, s.ROBFree,
			s.RSUsed, s.LQUsed, s.SQUsed, s.Reserve,
			s.InSlice, s.FRQ, s.Holes, s.Outstanding,
			s.FetchStall, s.Committed, s.IPC,
			mpkiCell(s.L1DMPKI), mpkiCell(s.L2MPKI), mpkiCell(s.LLCMPKI))
		if err != nil {
			return err
		}
	}
	return nil
}

// mpkiCell renders an MPKI column value. NaN marks an interval with no
// committed instructions — no meaningful rate — and renders as an empty
// cell so a fully stalled interval is distinguishable from a miss-free
// one.
func mpkiCell(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// chromeEvent is one entry of the Chrome trace_event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Cycle timestamps are written as microseconds: one simulated cycle
// renders as one "microsecond" in the viewer.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace file ("traceEvents"
// plus metadata), which viewers accept alongside the bare-array form.
type chromeTrace struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// cat returns the Chrome trace category of a uop event: the path kind
// plus its fate, so the viewer can color/filter wrong-path and flushed
// uops apart from committed correct-path work.
func cat(e Event) string {
	k := "correct"
	switch {
	case e.Wrong:
		k = "wrong-path"
	case e.Resolve:
		k = "resolve-path"
	}
	if e.Flushed {
		k += ",flushed"
	}
	return k
}

// WriteChromeTrace renders the retained events as Chrome trace_event
// JSON. Uop lifetimes become complete ("X") events spanning fetch to
// commit/flush with the per-stage timestamps in args; mechanism events
// (unlink/splice/recovery) become thread-scoped instant ("i") events.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	evs := r.Events()
	out := chromeTrace{
		TraceEvents: make([]chromeEvent, 0, len(evs)),
		OtherData: map[string]any{
			"unit":    "1 ts = 1 simulated cycle",
			"events":  r.TotalEvents(),
			"dropped": r.Dropped(),
		},
	}
	for _, e := range evs {
		ce := chromeEvent{
			Name: e.Name,
			TS:   e.TS,
			PID:  e.Core,
			TID:  e.Thread,
		}
		if e.Name == EvUop {
			ce.Name = e.Op
			ce.Cat = cat(e)
			ce.Phase = "X"
			ce.TS = e.Fetch
			ce.Dur = e.Commit - e.Fetch
			if ce.Dur < 1 {
				ce.Dur = 1
			}
			ce.Args = map[string]any{
				"seq": e.Seq, "pc": e.PC,
				"fetch": e.Fetch, "dispatch": e.Dispatch,
				"issue": e.Issue, "done": e.Done, "commit": e.Commit,
				"flushed": e.Flushed, "mispred": e.Mispred,
			}
		} else {
			ce.Cat = "mechanism"
			ce.Phase = "i"
			ce.Scope = "t"
			ce.Args = map[string]any{"seq": e.Seq, "pc": e.PC, "op": e.Op, "n": e.N}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// String renders one timeline sample as a human-readable line (the
// first line of the core's deadlock dump).
func (s Sample) String() string {
	return fmt.Sprintf(
		"core %d @%d: rob %d used/%d gaps/%d free, rs=%d lq=%d sq=%d (reserve %d), inSlice=%d frq=%d holes=%d outstanding=%d, fetch=%s, committed=%d",
		s.Core, s.Cycle, s.ROBUsed, s.ROBGaps, s.ROBFree,
		s.RSUsed, s.LQUsed, s.SQUsed, s.Reserve,
		s.InSlice, s.FRQ, s.Holes, s.Outstanding, s.FetchStall, s.Committed)
}

// String renders the event as one text line naming its cycle, core and
// thread, the subject instruction and its path. A uop lifetime adds its
// stage timestamps and, for a mispredicted branch, "mispred"; a mechanism
// event adds its payload N.
func (e Event) String() string {
	s := fmt.Sprintf("@%-8d core %d thread %d %-17s #%-8d @%-5d %-8s %s",
		e.TS, e.Core, e.Thread, e.Name, e.Seq, e.PC, e.Op, cat(e))
	if e.Name != EvUop {
		return s + fmt.Sprintf(" n=%d", e.N)
	}
	s += fmt.Sprintf(" fetch=%d dispatch=%d issue=%d done=%d commit=%d",
		e.Fetch, e.Dispatch, e.Issue, e.Done, e.Commit)
	if e.Mispred {
		s += " mispred"
	}
	return s
}

// TailByThread formats the last k retained events of every (core, thread)
// pair, oldest first — the flight-recorder part of the deadlock dump: what
// each thread was doing right before progress stopped.
func (r *Recorder) TailByThread(k int) string {
	if k <= 0 || r.total == 0 {
		return ""
	}
	evs := r.Events()
	type key struct{ core, thread int }
	last := map[key][]Event{}
	for _, e := range evs {
		kk := key{e.Core, e.Thread}
		q := append(last[kk], e)
		if len(q) > k {
			q = q[1:]
		}
		last[kk] = q
	}
	var keys []key
	for kk := range last {
		keys = append(keys, kk)
	}
	// Deterministic order without pulling in sort for two ints: simple
	// insertion sort over (core, thread).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && (keys[j].core < keys[j-1].core ||
			keys[j].core == keys[j-1].core && keys[j].thread < keys[j-1].thread); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	for _, kk := range keys {
		fmt.Fprintf(&b, " last %d events, core %d thread %d:\n", len(last[kk]), kk.core, kk.thread)
		for _, e := range last[kk] {
			b.WriteString("  " + e.String() + "\n")
		}
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&b, " (%d older events dropped by the ring)\n", d)
	}
	return b.String()
}
