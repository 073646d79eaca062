// Command bench is this repository's benchmark. It runs one of four
// workloads against the simulator and its HTTP service, times them from
// the outside — by wrapping the benchmark's own calls into each layer's
// public functions — checks every output it gets back, and prints one
// JSON result line as the last line of standard output.
//
// Run it from the repository root through bench/run.sh, which builds it
// from source first:
//
//	bash bench/run.sh --workload single-live --seed 1 --seconds 20 --trace 0
//
// --seed fixes every input: Options.Seed of each simulation and the
// serve-mixed request-mix RNG. --seconds is the measured window.
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics instead: it measures half the window untraced and
// half traced (spans in memory plus a CPU profile), then runs the layer
// drivers, and writes the spans as a Chrome trace_event file under
// .bench_build/. --out appends the run's full report (host fingerprint,
// digest, unchecked extras) as one JSON line to a file; --baseline
// compares the reports in --out with an earlier report file, per
// (workload, metric), using each metric's direction and bound from
// BENCHMARK.json.
//
// Load shape: the load comes from this one process; Runner jobs, worker
// goroutines and HTTP connections are each at most nproc (2 on the
// measurement host). Set-up runs five times — here and in four child
// processes of the same binary, so the process-wide kernels.Build cache
// starts empty each time — and setup_s is the median.
//
// Workloads and why each was chosen:
//
//   - single-live: closed loop, nproc workers, 7 kernels × {baseline,
//     BestMode} at their default scale through blp.RunContext (no Runner,
//     live emulator), whole passes until the window is spent. All host
//     time is in emu, core, bpred, cache and sim, none in trace, blp,
//     memo, store or serve: timing-model changes show here, Runner and
//     trace changes must not. One op is one simulation.
//   - timing-sweep: closed loop; per pass, a fresh blp.NewRunner(nproc)
//     runs one RunAll per kernel of {cc, bfs, ms}, sliced, one scale step
//     below default, over 8 timing configs (selective, conventional,
//     partial:16, throttle:2, FRQ 2, reserve 16, ROB block 4, oracle). The
//     emulator runs 3 times for 24 simulations, so trace capture, batched
//     replay, the wrong-path segment cache and every recovery policy
//     carry the load: the yardstick for deleting batch or seg and for the
//     recovery refactor. One op is one kernel's RunAll.
//   - fig-campaign: closed loop; per pass, a fresh Runner calls Fig4,
//     Fig5 and Fig7 two scale steps below default, the researcher's real
//     command. It exercises memo dedupe (every Fig5 request repeats a Fig4
//     run), the capture-on-reuse bet and mixed batch groups, so it shows
//     scheduling wins and losses rather than per-instruction cost. The
//     figures fix their own inputs, so --seed does not change them. One op
//     is one pass.
//   - serve-mixed: serve.New over blp.OpenStore on a loopback listener.
//     Set-up warms a hot set ({bc, bfs, cc, pr, sssp, ms} × 4 seeds ×
//     {none, outer} at scale 7, plus /v1/figures/4?delta=-4). Phase A,
//     40% of the window, is an open loop at 30 req/s timed from each
//     request's due time; per 20 requests, 12 hot /v1/run, 5 fresh-seed
//     /v1/run (miss, simulate, store write), 2 fresh-seed 4-policy
//     /v1/sweep and 1 figure GET, with a /metrics poll every second.
//     Phase B, the rest, is a closed loop with nproc clients over the same
//     mix. Phase C, after the window, restarts the server on the same
//     store and re-asks every phase-A run: the results must be
//     byte-identical with zero simulations. serve, memo and store carry
//     the load; timing-model changes should not move the hit path. One op
//     is one phase-B request. Phase A's latencies are per-layer numbers:
//     queueing at a fixed rate turns this host's speed swings into tail
//     swings far past any useful bound.
//
// End-to-end metrics, all host time, every workload: setup_s, sim_mips
// (simulated committed instructions per host second), ops_per_s,
// op_p50_ms (median op latency) and peak_rss_mib (VmHWM after a fixed
// amount of work: the window for the simulation workloads, whose passes
// repeat, and phase A for serve-mixed, whose phase B caches more the
// faster it runs). The simulation workloads take sim_mips and ops_per_s
// from each op's median time over the window (see runPasses);
// serve-mixed takes them from phase B's totals. Every time metric is
// scaled by the host factor of a reference loop timed alongside the
// window (see calib.go); the report keeps the raw values. No tail
// percentile is gated: only serve-mixed has ten samples beyond one, and
// that tail moves with the host (it is reported as serve.p95_ms).
//
// Per-layer metrics (--trace 1), keyed by module, with the end-to-end
// metric and workload each should move:
//
//	kernels  build_ms                                setup_s, every workload
//	emu      ns_per_inst, cpu_share                  sim_mips on single-live; ~none on timing-sweep
//	trace    capture/replay_ns_per_inst,             sim_mips on timing-sweep, op_p50_ms on
//	         bytes_per_inst, encode/decode_mb_s,     fig-campaign and serve-mixed; none on
//	         seg_hit_ratio, cpu_share                single-live
//	bpred    ns_per_branch, mpki, cpu_share          sim_mips on single-live and timing-sweep
//	cache    ns_per_access, l1d/llc_miss_ratio,      sim_mips on single-live and timing-sweep
//	         cpu_share
//	core     cpu_share, useful_dispatch_ratio,       sim_mips on the sim workloads; none on
//	         squashed_per_kinst                      serve-mixed's hit path
//	sim      ns_per_cycle, cpu_share                 sim_mips on single-live
//	blp,memo simulated, cached, captured, replayed,  op_p50_ms on fig-campaign, sim_mips on
//	         batched, hit_ratio, cpu_share           timing-sweep
//	store    put/get_ms_p50, writes, bytes,          op_p50_ms on serve-mixed
//	         cpu_share
//	serve    overhead_ms_p50, resp_kib_p50,          op_p50_ms and ops_per_s on serve-mixed
//	         queue_depth_max, rejected, per-class
//	         p50s, p95_ms, rps, phase_c_ms,
//	         gen_late_ms_max, cpu_share
//	runtime  gc_cpu_share, allocs_per_kinst,         sim_mips and peak_rss_mib on the sim
//	         cpu_util, cpu_share                     workloads
//
// The ns_per_* and *_mb_s numbers come from drivers that call one
// layer's public functions over the workload's own programs; the
// *.cpu_share numbers come from a CPU profile of the traced half, each
// sample charged to the layer of its stack (see layerOf). Simulated
// counts (bpred.mpki, the miss ratios, core.*) come from a pass whose
// digest is the window's, so tracing cannot move them. A layer the
// workload does not reach reports 0.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	blp "repro"
)

// metricDef describes one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before the
// gate reports a regression (from BENCHMARK.json).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd lists the metrics a --trace 0 run reports; BENCHMARK.json
// repeats them with their bounds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "sim_mips", Unit: "Minst/s", Better: "higher"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower"},
}

// perLayer lists the metrics a --trace 1 run reports.
var perLayer = []metricDef{
	{Name: "kernels.build_ms", Unit: "ms", Better: "lower"},
	{Name: "emu.ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "emu.cpu_share", Unit: "share", Better: "lower"},
	{Name: "trace.capture_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "trace.replay_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "trace.bytes_per_inst", Unit: "B", Better: "lower"},
	{Name: "trace.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.seg_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.cpu_share", Unit: "share", Better: "lower"},
	{Name: "bpred.ns_per_branch", Unit: "ns", Better: "lower"},
	{Name: "bpred.mpki", Unit: "1/kinst", Better: "lower"},
	{Name: "bpred.cpu_share", Unit: "share", Better: "lower"},
	{Name: "cache.ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "cache.l1d_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cache.llc_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cache.cpu_share", Unit: "share", Better: "lower"},
	{Name: "core.cpu_share", Unit: "share", Better: "lower"},
	{Name: "core.useful_dispatch_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.squashed_per_kinst", Unit: "1/kinst", Better: "lower"},
	{Name: "sim.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.cpu_share", Unit: "share", Better: "lower"},
	{Name: "blp.simulated", Unit: "count", Better: "lower"},
	{Name: "blp.cached", Unit: "count", Better: "higher"},
	{Name: "blp.captured", Unit: "count", Better: "lower"},
	{Name: "blp.replayed", Unit: "count", Better: "higher"},
	{Name: "blp.batched", Unit: "count", Better: "higher"},
	{Name: "blp.cpu_share", Unit: "share", Better: "lower"},
	{Name: "memo.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "memo.cpu_share", Unit: "share", Better: "lower"},
	{Name: "store.put_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.writes", Unit: "count", Better: "lower"},
	{Name: "store.bytes", Unit: "B", Better: "lower"},
	{Name: "store.cpu_share", Unit: "share", Better: "lower"},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.resp_kib_p50", Unit: "KiB", Better: "lower"},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sweep_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rps", Unit: "1/s", Better: "higher"},
	{Name: "serve.phase_c_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.gen_late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "serve.cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.allocs_per_kinst", Unit: "1/kinst", Better: "lower"},
	{Name: "runtime.cpu_util", Unit: "share", Better: "higher"},
	{Name: "runtime.cpu_share", Unit: "share", Better: "lower"},
	{Name: "bench.cpu_share", Unit: "share", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// workloadNames is the benchmark's workload set, in BENCHMARK.json order.
var workloadNames = []string{"single-live", "timing-sweep", "fig-campaign", "serve-mixed"}

// setupRepeats is how many set-ups one run times (one here, the rest in
// child processes); setup_s is their median.
const setupRepeats = 5

// setupChildEnv marks a child process that only sets up and reports how
// long that took.
const setupChildEnv = "BENCH_SETUP_CHILD"

// scratchDir holds stores, span files and the setup children's state,
// inside the checkout (bench/run.sh builds into the same directory).
const scratchDir = ".bench_build"

// config sizes one workload. The command uses defaultConfig; tests shrink
// the inputs through delta.
type config struct {
	seed  uint64
	delta int    // added to every input scale the workload uses
	jobs  int    // Runner jobs, worker goroutines and HTTP connections
	dir   string // scratch directory for stores
}

func defaultConfig(seed uint64) config {
	return config{seed: seed, jobs: runtime.NumCPU(), dir: scratchDir}
}

// workload is one benchmark workload. setup builds everything the window
// needs; measure runs the load for the window; finish runs the checks
// that follow it; programs returns the single-thread programs the layer
// drivers run over.
type workload interface {
	setup(tr *tracer) error
	measure(window time.Duration, tr *tracer) (*measurement, error)
	finish(m *measurement)
	programs() ([]layerInput, error)
	close()
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "single-live":
		return newSingleLive(cfg), nil
	case "timing-sweep":
		return newTimingSweep(cfg), nil
	case "fig-campaign":
		return newFigCampaign(cfg), nil
	case "serve-mixed":
		return newServeMixed(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(workloadNames, ", "))
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a run's full report, as --out appends it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	resultLine
	Digest   string             `json:"sim_digest,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
	Problems []string           `json:"problems,omitempty"`
	Host     host               `json:"host"`
}

func main() {
	start := time.Now()
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	out := flag.String("out", "", "append the run's full report as one JSON line to this file")
	baseline := flag.String("baseline", "", "report file to gate the reports in -out against")
	flag.Parse()

	if *name == "" {
		if *baseline == "" {
			log.Fatal("-workload is required")
		}
		os.Exit(runGate(*baseline, *out))
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		log.Fatal("-seconds must be positive and -trace 0 or 1")
	}
	cfg := defaultConfig(*seed)
	if os.Getenv(setupChildEnv) != "" {
		if err := setupOnly(*name, cfg, start); err != nil {
			log.Fatal(err)
		}
		return
	}

	rec, err := run(*name, cfg, time.Duration(*seconds)*time.Second, *traceFlag == 1, start)
	if err != nil {
		log.Fatal(err)
	}
	printSummary(rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			log.Fatal(err)
		}
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if *baseline != "" {
		os.Exit(runGate(*baseline, *out))
	}
}

// setupOnly is the setup child: set up once, print the seconds since the
// process started, and exit.
func setupOnly(name string, cfg config, start time.Time) error {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(nil); err != nil {
		return err
	}
	fmt.Println(time.Since(start).Seconds())
	return nil
}

// setupChild runs one setup child and returns its set-up seconds.
func setupChild() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, os.Args[1:]...)
	cmd.Env = append(os.Environ(), setupChildEnv+"=1")
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup child: %w", err)
	}
	fields := strings.Fields(string(outb))
	if len(fields) == 0 {
		return 0, errors.New("setup child printed nothing")
	}
	return strconv.ParseFloat(fields[len(fields)-1], 64)
}

// run sets the workload up, measures it and assembles its report.
func run(name string, cfg config, window time.Duration, traced bool, start time.Time) (*record, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	if err := w.setup(tr); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	setups := []float64{time.Since(start).Seconds()}
	for len(setups) < setupRepeats {
		s, err := setupChild()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	rec := &record{Workload: name, Seed: cfg.seed, Traced: traced, Host: fingerprint()}
	var m *measurement
	if !traced {
		if m, err = w.measure(window, nil); err != nil {
			return nil, err
		}
		w.finish(m)
		rec.Metrics = endToEndMetrics(m, median(setups))
	} else {
		if m, err = measureTraced(name, cfg, w, window, tr); err != nil {
			return nil, err
		}
		rec.Metrics = m.layers
	}
	checkDigest(name, cfg, m)
	rec.Attempted, rec.Failed = m.attempted, m.failed
	rec.Correct = m.failed == 0
	rec.Digest, rec.Extra, rec.Problems = m.digest, m.extra, m.problems
	if m.digest != "" {
		rec.Extra["nondeterministic_passes"] = float64(m.nondeterministic)
	}
	return rec, nil
}

// endToEndMetrics assembles the --trace 0 metrics, with every time
// metric scaled by the window's host factor (see calib.go) — set-up too,
// which ran seconds earlier on the same host. The unscaled values go to
// m.extra.
func endToEndMetrics(m *measurement, setupS float64) map[string]metricValue {
	f := m.hostFactor()
	opP50 := 1000 * median(m.ops)
	m.extra["host_factor"] = f
	m.extra["raw_setup_s"], m.extra["raw_sim_mips"], m.extra["raw_ops_per_s"], m.extra["raw_op_p50_ms"] = setupS, m.simMIPS, m.opsPerSec, opP50
	v := map[string]float64{
		"setup_s":      setupS / f,
		"sim_mips":     m.simMIPS * f,
		"ops_per_s":    m.opsPerSec * f,
		"op_p50_ms":    opP50 / f,
		"peak_rss_mib": m.peakRSS,
	}
	return withUnits(endToEnd, v)
}

func withUnits(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

func printSummary(rec *record) {
	mode := "end-to-end"
	defs := endToEnd
	if rec.Traced {
		mode, defs = "per-layer", perLayer
	}
	log.Printf("%s seed %d, %s: %d ops attempted, %d failed", rec.Workload, rec.Seed, mode, rec.Attempted, rec.Failed)
	for _, d := range defs {
		v := rec.Metrics[d.Name]
		log.Printf("  %-28s %14.4f %s", d.Name, v.Value, v.Unit)
	}
	for _, k := range sortedKeys(rec.Extra) {
		log.Printf("  %-28s %14.4f (unchecked)", k, rec.Extra[k])
	}
	for _, p := range rec.Problems {
		log.Printf("  FAILED CHECK: %s", p)
	}
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// host is the fingerprint every report carries, so wall clocks are only
// compared between runs on one kind of host.
type host struct {
	NumCPU          int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	CPUModel        string `json:"cpu_model"`
	GoVersion       string `json:"go_version"`
	Commit          string `json:"commit"`
	BehaviorVersion string `json:"behavior_version"`
}

func fingerprint() host {
	h := host{
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		CPUModel:        "unknown",
		GoVersion:       runtime.Version(),
		Commit:          "unknown",
		BehaviorVersion: blp.BehaviorVersion(),
	}
	if model := procField("/proc/cpuinfo", "model name"); model != "" {
		h.CPUModel = model
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// peakRSSMiB returns this process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64) // 0 when unreadable
	return kb / 1024
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when there is none.
func procField(path, key string) string {
	data, _ := os.ReadFile(path) // an unreadable file has no fields
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// scratch makes a fresh directory under cfg.dir.
func scratch(cfg config, pattern string) (string, error) {
	dir, err := os.MkdirTemp(cfg.dir, pattern)
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
