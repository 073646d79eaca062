package main

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the traced run's spans in memory and writes them when the
// run ends, in the Chrome trace_event format sfsim -trace writes. Spans
// are recorded only around the benchmark's own calls into each layer's
// public functions. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one timed call: Parent is the span that caused it (0 for a
// root), and the spans of one HTTP request share Req.
type span struct {
	ID, Parent, Req int64
	Name            string
	Lane            int // worker goroutine or connection
	Start, End      time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent int64, lane int, req int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.ids.Add(1)
	start := time.Since(t.t0)
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Lane: lane, Start: start, End: end})
		t.mu.Unlock()
	}
}

// total returns the summed seconds of the spans whose name starts with
// prefix.
func (t *tracer) total(prefix string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var s time.Duration
	for _, sp := range t.spans {
		if strings.HasPrefix(sp.Name, prefix) {
			s += sp.End - sp.Start
		}
	}
	return s.Seconds()
}

// chromeEvent is one complete ("X") event of the trace_event format.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`  // microseconds
	Dur   float64        `json:"dur"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

// writeChrome writes every recorded span as one trace_event JSON object.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, sp := range t.spans {
		evs = append(evs, chromeEvent{
			Name: sp.Name, Cat: "bench", Phase: "X",
			TS:  float64(sp.Start.Nanoseconds()) / 1e3,
			Dur: float64((sp.End - sp.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: sp.Lane,
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent, "req": sp.Req},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents": evs,
		"otherData":   map[string]any{"unit": "1 ts = 1 host microsecond"},
	})
}
