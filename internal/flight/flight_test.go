package flight

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestRingKeepsNewestEvents(t *testing.T) {
	r := &Recorder{MaxEvents: 3}
	for i := 0; i < 5; i++ {
		r.Record(Event{TS: int64(i), Name: EvUnlink})
	}
	if r.TotalEvents() != 5 {
		t.Fatalf("total %d, want 5", r.TotalEvents())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.TS != int64(i+2) {
			t.Fatalf("event %d has TS %d, want %d (chronological tail)", i, e.TS, i+2)
		}
	}
}

func TestRingUnderCapacity(t *testing.T) {
	r := &Recorder{MaxEvents: 8}
	r.Record(Event{TS: 1})
	r.Record(Event{TS: 2})
	if r.Dropped() != 0 {
		t.Fatalf("dropped %d, want 0", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].TS != 1 || evs[1].TS != 2 {
		t.Fatalf("bad retained events: %+v", evs)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	r := &Recorder{MaxEvents: 8}
	r.Record(Event{TS: 1, Name: EvUnlink})
	evs := r.Events()
	evs[0].Name = "clobbered"
	if got := r.Events()[0].Name; got != EvUnlink {
		t.Fatalf("mutating Events() result changed recorder state: %q", got)
	}
}

func TestTimelineCSVNaNRendersEmpty(t *testing.T) {
	r := &Recorder{Interval: 100}
	r.AddSample(Sample{Cycle: 100, FetchStall: "resolve",
		L1DMPKI: math.NaN(), L2MPKI: math.NaN(), LLCMPKI: math.NaN()})
	var b bytes.Buffer
	if err := r.WriteTimelineCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if !strings.HasSuffix(lines[1], ",,,") {
		t.Fatalf("zero-commit interval MPKI should render as empty cells: %s", lines[1])
	}
}

func TestTimelineCSV(t *testing.T) {
	r := &Recorder{Interval: 100}
	r.AddSample(Sample{Cycle: 100, Core: 0, ROBUsed: 10, FetchStall: "ok", Committed: 42, IPC: 0.42})
	r.AddSample(Sample{Cycle: 100, Core: 1, ROBUsed: 20, FetchStall: "resolve", Committed: 7, L1DMPKI: 3.5})
	var b bytes.Buffer
	if err := r.WriteTimelineCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines, want header + 2 rows:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "cycle,core,rob_used") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if got := strings.Count(lines[0], ","); got != strings.Count(lines[1], ",") {
		t.Fatalf("row width %d does not match header width %d", strings.Count(lines[1], ","), got)
	}
	if !strings.Contains(lines[2], "resolve") || !strings.Contains(lines[2], "3.500") {
		t.Fatalf("row 2 missing fields: %s", lines[2])
	}
}

func TestChromeTraceShape(t *testing.T) {
	r := &Recorder{}
	r.Record(Event{
		Name: EvUop, Core: 0, Thread: 0, Seq: 7, PC: 12, Op: "ld",
		Fetch: 10, Dispatch: 22, Issue: 24, Done: 40, Commit: 41, Mispred: true,
	})
	r.Record(Event{Name: EvUnlink, TS: 50, Seq: 8, Op: "add", Wrong: true, N: 7})
	r.Record(Event{Name: EvSplice, TS: 52, Seq: 9, Op: "add", Resolve: true, N: 7})
	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d trace events, want 3", len(doc.TraceEvents))
	}
	uop := doc.TraceEvents[0]
	if uop["ph"] != "X" || uop["name"] != "ld" || uop["ts"] != float64(10) || uop["dur"] != float64(31) {
		t.Fatalf("bad uop complete event: %v", uop)
	}
	if args, ok := uop["args"].(map[string]any); !ok || args["mispred"] != true {
		t.Fatalf("uop event must carry its mispredict bit: %v", uop)
	}
	unlink := doc.TraceEvents[1]
	if unlink["ph"] != "i" || unlink["name"] != EvUnlink {
		t.Fatalf("bad unlink instant event: %v", unlink)
	}
	splice := doc.TraceEvents[2]
	if splice["ph"] != "i" || splice["name"] != EvSplice {
		t.Fatalf("bad splice instant event: %v", splice)
	}
	args, ok := splice["args"].(map[string]any)
	if !ok || args["n"] != float64(7) {
		t.Fatalf("splice event must carry the branch seq pairing it with the unlink: %v", splice)
	}
}

func TestTailByThread(t *testing.T) {
	r := &Recorder{MaxEvents: 16}
	for i := 0; i < 6; i++ {
		r.Record(Event{TS: int64(i), Core: 0, Thread: i % 2, Name: EvRecoverSel, Seq: uint64(i)})
	}
	tail := r.TailByThread(2)
	if !strings.Contains(tail, "core 0 thread 0") || !strings.Contains(tail, "core 0 thread 1") {
		t.Fatalf("tail missing threads:\n%s", tail)
	}
	// Thread 0 saw events 0,2,4; the 2-deep tail keeps 2 and 4.
	if strings.Contains(tail, "#0 ") {
		t.Fatalf("tail retained an event older than the last 2:\n%s", tail)
	}
}

// One line per event, naming its core and thread: uop lifetimes carry
// their stage timestamps and mispredict mark, mechanism events their N.
func TestEventString(t *testing.T) {
	uop := Event{Name: EvUop, TS: 10, Core: 1, Thread: 1, Seq: 7, PC: 12, Op: "blt",
		Fetch: 10, Dispatch: 22, Issue: 24, Done: 40, Commit: 41, Mispred: true}
	s := uop.String()
	for _, want := range []string{"core 1 thread 1 ", "#7 ", "blt", "correct",
		"fetch=10 dispatch=22 issue=24 done=40 commit=41", " mispred"} {
		if !strings.Contains(s, want) {
			t.Fatalf("uop line %q lacks %q", s, want)
		}
	}
	uop.Mispred = false
	if strings.Contains(uop.String(), "mispred") {
		t.Fatalf("correctly predicted uop marked: %q", uop.String())
	}
	mech := Event{Name: EvUnlink, TS: 50, Core: 0, Thread: 1, Seq: 8, Op: "add", Wrong: true, N: 7}
	s = mech.String()
	for _, want := range []string{"@50 ", "core 0 thread 1 ", EvUnlink, "wrong-path", "n=7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("mechanism line %q lacks %q", s, want)
		}
	}
	if strings.ContainsAny(s+uop.String(), "\n") {
		t.Fatal("an event line spans lines")
	}
}

func TestZeroDurClampedToOne(t *testing.T) {
	r := &Recorder{}
	r.Record(Event{Name: EvUop, Fetch: 5, Commit: 5, Op: "nop"})
	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"dur":1`) {
		t.Fatalf("zero-length uop should clamp dur to 1:\n%s", b.String())
	}
}
