package blp

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/stats"
)

// The metrics report must survive a JSON round trip: table cells intact,
// values at full float precision, and NaN (a legitimate "unmeasurable"
// marker, e.g. Speedup against a zero-cycle run) mapped through null
// rather than crashing the encoder.
func TestReportJSONRoundTrip(t *testing.T) {
	f := &Figure{
		ID:    "figX",
		Title: "round-trip fixture",
		Table: stats.NewTable("bench", "speedup"),
		Notes: "fixture",
	}
	f.Table.AddRow("bfs", 1.2345678)
	f.Table.AddRow("pr", "-")
	f.set("bfs", 1.2345678)
	f.set("pr", math.NaN())

	var buf bytes.Buffer
	if err := NewReport(f).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}

	var got Report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("round trip failed to parse: %v", err)
	}
	if got.SchemaVersion != MetricsSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", got.SchemaVersion, MetricsSchemaVersion)
	}
	if len(got.Figures) != 1 {
		t.Fatalf("got %d figures, want 1", len(got.Figures))
	}
	fm := got.Figures[0]
	if fm.ID != "figX" || fm.Title != "round-trip fixture" || fm.Notes != "fixture" {
		t.Fatalf("figure metadata mangled: %+v", fm)
	}
	if len(fm.Header) != 2 || fm.Header[0] != "bench" {
		t.Fatalf("header mangled: %v", fm.Header)
	}
	if len(fm.Rows) != 2 || fm.Rows[0][1] != "1.235" || fm.Rows[1][1] != "-" {
		t.Fatalf("rows mangled: %v", fm.Rows)
	}
	if float64(fm.Values["bfs"]) != 1.2345678 {
		t.Fatalf("value lost precision: %v", fm.Values["bfs"])
	}
	if !math.IsNaN(float64(fm.Values["pr"])) {
		t.Fatalf("NaN value did not round-trip via null: %v", fm.Values["pr"])
	}
	if !strings.Contains(buf.String(), `"pr": null`) {
		t.Fatalf("NaN not encoded as null:\n%s", buf.String())
	}
}

func TestMetricMarshalEdgeCases(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		b, err := json.Marshal(Metric(v))
		if err != nil {
			t.Fatalf("Metric(%v): %v", v, err)
		}
		if string(b) != "null" {
			t.Fatalf("Metric(%v) = %s, want null", v, b)
		}
	}
	b, err := json.Marshal(Metric(2.5))
	if err != nil || string(b) != "2.5" {
		t.Fatalf("Metric(2.5) = %s, %v", b, err)
	}
}

// Recording is observation only, and complete beyond one core: on one
// core, two cores and SMT2, a run watched by a timeline and uop-tracing
// recorder returns exactly RunContext's Result; its events cover every
// (core, thread) pair, the selective-flush mechanism and the
// mispredicted branches; and the Chrome trace and timeline CSV export
// them.
func TestFlightRecorderNeutralAndTraces(t *testing.T) {
	for _, shape := range []struct {
		name       string
		cores, smt int
	}{{"1core", 1, 1}, {"2cores", 2, 1}, {"smt2", 1, 2}} {
		t.Run(shape.name, func(t *testing.T) {
			o := Options{Benchmark: "bfs", Scale: 6, Mode: SliceOuter, Cores: shape.cores, SMT: shape.smt}
			want, err := RunContext(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			rec := &FlightRecorder{Interval: 100, TraceUops: true}
			got, err := RunRecorded(context.Background(), o, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recorder changed the result:\nrecorded:   %+v\nunrecorded: %+v", got, want)
			}
			if rec.Dropped() != 0 {
				t.Fatalf("ring dropped %d events; completeness cannot be checked", rec.Dropped())
			}

			type hwThread struct{ core, thread int }
			threads, uopThreads := map[hwThread]bool{}, map[hwThread]bool{}
			names := map[string]bool{}
			mispred := false
			evs := rec.Events()
			for _, e := range evs {
				threads[hwThread{e.Core, e.Thread}] = true
				names[e.Name] = true
				if e.Name == flight.EvUop {
					uopThreads[hwThread{e.Core, e.Thread}] = true
					mispred = mispred || e.Mispred
				}
			}
			for c := 0; c < shape.cores; c++ {
				for th := 0; th < shape.smt; th++ {
					if !uopThreads[hwThread{c, th}] {
						t.Errorf("no uop event from core %d thread %d", c, th)
					}
				}
			}
			if len(threads) != shape.cores*shape.smt {
				t.Errorf("events name %d (core, thread) pairs, want %d", len(threads), shape.cores*shape.smt)
			}
			for _, name := range []string{flight.EvRecoverSel, flight.EvSplice, flight.EvUnlink} {
				if !names[name] {
					t.Errorf("no %s event recorded", name)
				}
			}
			if !mispred {
				t.Error("no uop event carries the mispredict bit")
			}

			var trace bytes.Buffer
			if err := rec.WriteChromeTrace(&trace); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct{ Name string } `json:"traceEvents"`
			}
			if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
				t.Fatalf("trace is not valid JSON: %v", err)
			}
			if len(doc.TraceEvents) != len(evs) {
				t.Errorf("trace holds %d events, the recorder %d", len(doc.TraceEvents), len(evs))
			}

			var csv bytes.Buffer
			if err := rec.WriteTimelineCSV(&csv); err != nil {
				t.Fatal(err)
			}
			rows := strings.Split(strings.TrimSpace(csv.String()), "\n")[1:]
			cores := map[string]bool{}
			for _, row := range rows {
				cores[strings.Split(row, ",")[1]] = true
			}
			if len(rows) == 0 || len(cores) != shape.cores {
				t.Errorf("timeline has %d rows over %d cores, want rows for %d cores", len(rows), len(cores), shape.cores)
			}
		})
	}
}
