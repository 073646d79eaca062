package blp

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden compares got against testdata/<name>, rewriting the file
// when -update is set. Figures are deterministic — the simulator has no
// hidden randomness and the runner assembles tables in declaration order —
// so the rendered text must be byte-identical run to run.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test . -run TestGolden -update`)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenTable1 pins the static configuration table.
func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1.golden", Table1().String())
}

// TestGoldenFig4SmallScale pins the full experiments -fig 4 text output at
// the minimum input scale: every benchmark, every slicing placement, and
// the perfect-prediction column, through the real memoized runner. Any
// change to simulator timing, table formatting, or harmonic-mean math
// shows up as a diff here.
func TestGoldenFig4SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark through the simulator")
	}
	f, err := NewRunner(0).Fig4(-100) // clamps every benchmark to minScale
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig4-minscale.golden", f.String())
}

// TestGoldenFiguresMinScale pins the metrics report of every simulated
// figure at the minimum input scale, through one Runner as
// `experiments -fig all -delta -100 -cores 3 -sizedelta 0 -json` prints
// it: each table's cells, notes and Values. Fig. 10 runs on 3 cores, so
// its multicore LLC has 96 sets. The Runner's counts pin which runs each
// figure requests and how many the figures share.
func TestGoldenFiguresMinScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure through the simulator")
	}
	r := NewRunner(0)
	var figs []*Figure
	for _, id := range FigureIDs() {
		if id == "table1" {
			continue
		}
		f, err := r.Figure(id, FigureParams{Delta: -100, Cores: 3})
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, f)
	}
	var sb strings.Builder
	if err := NewReport(figs...).WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figures-minscale.golden", sb.String())
	if s := r.Stats(); s.Simulated != 185 || s.Cached != 133 {
		t.Errorf("simulated %d / cached %d, want 185 / 133", s.Simulated, s.Cached)
	}
}

// TestGoldenPolicyMinScale pins the recovery-policy timing at the minimum
// input scale: one line per benchmark × core.ConformanceMatrix row on the
// default 224-entry ROB, giving the counters each recovery mechanism
// moves, plus selective cc on two cores, selective bfs under SMT2, and
// two core counts that are not powers of two (selective cc on 3 cores,
// selective bfs on 28), whose LLCs have 96 and 896 sets.
// Fig. 4 runs only selective and conventional, and the -fig policy table
// rounds partial flush's cycle-neutral drain away, so this is the test
// that fails when partial or throttle timing changes. Selective runs at
// BestMode; every other policy runs the unsliced binary, as in -fig
// policy. Each line ends with the sha256 of the Result's JSON, so every
// counter is pinned, not only the printed ones: a change meant to leave
// results alone is checked here on sums such as OutstandingSum and
// ROBOccupancySum, which no figure golden prints.
func TestGoldenPolicyMinScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark under every conformance policy")
	}
	const rob = 224
	specs := core.ConformanceMatrix(rob)
	sort.Slice(specs, func(i, j int) bool { return specs[i].String() < specs[j].String() })
	var opts []Options
	for _, b := range Benchmarks {
		for _, sp := range specs {
			mode := SliceNone
			if sp.Kind == core.PolicySelective {
				mode = BestMode(b)
			}
			opts = append(opts, Options{Benchmark: b, Scale: minScale, Mode: mode, Policy: sp.String()})
		}
	}
	opts = append(opts,
		Options{Benchmark: "cc", Scale: minScale, Mode: BestMode("cc"), Policy: "selective", Cores: 2},
		Options{Benchmark: "bfs", Scale: minScale, Mode: BestMode("bfs"), Policy: "selective", SMT: 2},
		Options{Benchmark: "cc", Scale: minScale, Mode: BestMode("cc"), Policy: "selective", Cores: 3},
		Options{Benchmark: "bfs", Scale: minScale, Mode: BestMode("bfs"), Policy: "selective", Cores: 28})
	results, err := NewRunner(0).RunAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i, o := range opts {
		s := results[i].Stats
		js, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%-4s %-12s %-5s cores=%d smt=%d cycles=%d conv=%d flushedFull=%d drain=%d throttled=%d sha256=%x\n",
			o.Benchmark, o.Policy, o.Mode, max(o.Cores, 1), max(o.SMT, 1), s.Cycles, s.ConvRecoveries,
			s.FlushedFull, s.DrainCycles, s.ThrottledCycles, sha256.Sum256(js))
		sp, _ := core.ParsePolicy(o.Policy)
		// The scale is chosen so every staged and gated row engages its
		// mechanism; a row that stops engaging pins nothing.
		if sp.Kind == core.PolicyPartial && sp.Depth > 0 && sp.Depth < rob && s.DrainCycles == 0 {
			t.Errorf("%s %s: no drain cycles", o.Benchmark, o.Policy)
		}
		if sp.Kind == core.PolicyThrottle && sp.Conf >= 2 && s.ThrottledCycles == 0 {
			t.Errorf("%s %s: no throttled cycles", o.Benchmark, o.Policy)
		}
	}
	checkGolden(t, "policy-minscale.golden", sb.String())
}
