package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shrunk runs a workload at small inputs: scales three steps below the
// benchmark's own (floored at the figures' minimum) and a one-second
// window.
func shrunk(t *testing.T) config {
	return config{seed: 3, delta: -3, jobs: 2, dir: t.TempDir()}
}

const shrunkWindow = time.Second

// TestWorkloads runs every workload untraced and traced at a shrunken
// size, through the same functions the command calls.
func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := shrunk(t)
			w, err := newWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if err := w.setup(nil); err != nil {
				t.Fatal(err)
			}
			m, err := w.measure(shrunkWindow, nil)
			if err != nil {
				t.Fatal(err)
			}
			w.finish(m)
			if m.failed != 0 || m.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", m.failed, m.attempted, m.problems)
			}
			if name != "serve-mixed" && m.digest == "" {
				t.Error("no sim digest")
			}
			// Runner replays are known to vary with replay interleaving
			// (see runPasses); single-live runs the live emulator, whose
			// passes must agree.
			if name == "single-live" && m.nondeterministic != 0 {
				t.Errorf("%d passes disagree with the window's digest", m.nondeterministic)
			}
			e2e := endToEndMetrics(m, 0.5)
			for _, d := range endToEnd {
				v, ok := e2e[d.Name]
				if !ok || v.Unit != d.Unit || !(v.Value > 0) {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
			untraced := simulatedCounts(m.results)

			// The traced run: every per-layer metric, the same simulated
			// counts, and a span file whose parents all exist.
			tr := newTracer()
			w2, err := newWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.close()
			if err := w2.setup(tr); err != nil {
				t.Fatal(err)
			}
			tm, err := measureTraced(name, cfg, w2, 2*shrunkWindow, tr)
			if err != nil {
				t.Fatal(err)
			}
			if tm.failed != 0 {
				t.Fatalf("traced run: %d ops failed: %v", tm.failed, tm.problems)
			}
			// Equal digests mean equal results, so tracing must not have
			// moved any simulated count.
			sameResults := m.digest == tm.digest
			if name == "single-live" && !sameResults {
				t.Errorf("traced digest %s, untraced %s", tm.digest, m.digest)
			}
			var shares float64
			for _, d := range perLayer {
				v, ok := tm.layers[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v, want a finite value in %s", d.Name, v, d.Unit)
				}
				if strings.HasSuffix(d.Name, ".cpu_share") {
					shares += v.Value
				}
			}
			if shares < 0.5 || shares > 1.0001 {
				t.Errorf("cpu shares sum to %.3f", shares)
			}
			for k, want := range untraced {
				if got := tm.layers[k].Value; sameResults && got != want {
					t.Errorf("%s traced %v, untraced %v", k, got, want)
				}
			}
			for _, k := range []string{"emu.ns_per_inst", "trace.replay_ns_per_inst", "bpred.ns_per_branch",
				"cache.ns_per_access", "store.put_ms_p50", "kernels.build_ms"} {
				if !(tm.layers[k].Value > 0) {
					t.Errorf("%s = %v, want the driver's positive time", k, tm.layers[k].Value)
				}
			}
			checkSpanFile(t, filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.json", name, cfg.seed)))
		})
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     int64 `json:"id"`
				Parent int64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("span file: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("span file holds no spans")
	}
	ids := map[int64]bool{}
	for _, e := range f.TraceEvents {
		ids[e.Args.ID] = true
	}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Errorf("span %q: phase %q, duration %v", e.Name, e.Ph, e.Dur)
		}
		if e.Args.Parent != 0 && !ids[e.Args.Parent] {
			t.Errorf("span %q: parent %d missing", e.Name, e.Args.Parent)
		}
	}
}

func reports(workload string, metric string, values ...float64) []record {
	var out []record
	for _, v := range values {
		out = append(out, record{Workload: workload, resultLine: resultLine{
			Metrics: map[string]metricValue{metric: {Value: v, Unit: "Minst/s"}}}})
	}
	return out
}

func TestGate(t *testing.T) {
	defs := []metricDef{{Name: "sim_mips", Unit: "Minst/s", Better: "higher", Bound: 0.1}}
	base := reports("single-live", "sim_mips", 1.50, 1.52, 1.49, 1.51, 1.50)
	for _, tc := range []struct {
		name string
		base []record
		head []record
		want string
	}{
		{"2x regression", base, reports("single-live", "sim_mips", 0.75, 0.76, 0.74), "REGRESSED"},
		{"in-bound change", base, reports("single-live", "sim_mips", 1.45, 1.44, 1.46), "ok"},
		{"improvement", base, reports("single-live", "sim_mips", 2.0, 2.1), "ok"},
		{"noisy baseline", reports("single-live", "sim_mips", 1.0, 1.5, 2.0, 1.2, 1.8), reports("single-live", "sim_mips", 1.4), "unresolved"},
	} {
		vs, err := gate(tc.base, tc.head, defs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(vs) != 1 || vs[0].Status != tc.want {
			t.Errorf("%s: %+v, want %s", tc.name, vs, tc.want)
		}
	}
	if _, err := gate(base, reports("serve-mixed", "sim_mips", 1.5), defs); !errors.Is(err, errVacuous) {
		t.Errorf("disjoint reports: err %v, want %v", err, errVacuous)
	}
}

// TestQuartiles pins iqrShare to Python's statistics.quantiles(xs, n=4),
// which gives [2.75, 5.5, 8.25] for 1..10.
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/core.(*Core).Step", "repro/internal/sim.Run"}, "core"},
		{[]string{"repro/internal/rob.(*ROB).Push", "repro/internal/core.(*Core).dispatch"}, "core"},
		{[]string{"runtime.mallocgc", "repro/internal/core.(*Core).Step"}, "runtime"},
		{[]string{"slices.pdqsortCmpFunc[go.shape.*repro/internal/core.uop]", "repro/internal/core.(*Core).issue"}, "runtime"},
		{[]string{"encoding/json.(*encodeState).marshal", "repro/internal/serve.writeJSON"}, "serve"},
		{[]string{"repro/internal/isa.Op.IsLoad", "repro/internal/emu.(*Machine).Step"}, "emu"},
		{[]string{"net/http.(*persistConn).readLoop", "main.(*serveMixed).do"}, "bench"},
		{[]string{"fmt.Sprintf", "repro.Options.Key"}, "blp"},
		{[]string{"aeshashbody", "runtime.mapaccess1_faststr"}, "runtime"},
		{[]string{"__tsan_read", "runtime._System"}, "runtime"},
		{[]string{"net/http.(*conn).readRequest", "net/http.(*conn).serve"}, "serve"},
		{[]string{"syscall.Syscall6"}, "other"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json describes what the command
// reports: the same workloads, metric names, units and directions.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: %+v, want %s with a why", i, w, workloadNames[i])
		}
	}
	same := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, w)
			}
			if bounded && !(g.Bound > 0 && g.Bound <= 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
