package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"

	blp "repro"
)

// measurement is what one measured window produced.
type measurement struct {
	simMIPS   float64   // simulated committed Minst per host second
	opsPerSec float64   // ops completed per host second
	ops       []float64 // op latencies, seconds
	peakRSS   float64   // MiB, read after a fixed amount of work
	attempted int
	failed    int
	problems  []string
	digest    string
	// nondeterministic counts passes whose digest differs from digest.
	nondeterministic int
	cals             []float64 // the reference loop's seconds, timed through the window

	// Inputs to the per-layer metrics.
	results        []*blp.Result // one deterministic result set (a pass, or the hot set)
	insts          uint64        // committed instructions simulated in the window
	simCycles      int64         // simulated cycles behind simHostSeconds
	simHostSeconds float64       // host seconds of the spans around simulations
	runner         *blp.RunnerStats
	cache          *blp.CacheStats
	serve          *serveStats
	extra          map[string]float64 // reported, never gated
	layers         map[string]metricValue
}

// calibrate times the reference loop once more (see calib.go). A traced
// window skips it: its metrics are not scaled, and its CPU profile must
// hold only the workload.
func (m *measurement) calibrate(tr *tracer) {
	if tr != nil {
		return
	}
	sec, err := calibrate()
	if err != nil {
		m.fail("%v", err)
		return
	}
	m.cals = append(m.cals, sec)
}

// hostFactor is how much slower than nominal the reference loop ran over
// the window (1 when it was not timed).
func (m *measurement) hostFactor() float64 {
	if len(m.cals) == 0 {
		return 1
	}
	return median(m.cals) / calNominal
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// merge folds an earlier window's operation counts and failures into m.
func (m *measurement) merge(u *measurement) {
	m.attempted += u.attempted
	m.failed += u.failed
	m.problems = append(u.problems, m.problems...)
	m.nondeterministic += u.nondeterministic
	if u.digest != "" && m.digest != u.digest {
		m.nondeterministic++
		log.Printf("WARNING: traced sim digest %s differs from untraced %s", m.digest, u.digest)
	}
}

//go:embed testdata/digests.json
var pinnedDigests []byte

// checkDigest compares a seed-1 run's sim digest at the benchmark's own
// sizes with testdata/digests.json, keyed by behavior version. A version
// the file does not know is reported as unchecked, not as a failure: the
// simulator's numbers changed on purpose.
func checkDigest(name string, cfg config, m *measurement) {
	if cfg.delta != 0 || cfg.seed != 1 || m.digest == "" {
		return
	}
	var pinned map[string]map[string]string
	if err := json.Unmarshal(pinnedDigests, &pinned); err != nil {
		m.fail("testdata/digests.json: %v", err)
		return
	}
	bv := blp.BehaviorVersion()
	want, ok := pinned[bv][name]
	switch {
	case !ok:
		log.Printf("unchecked: behavior changed (version %s has no %s digest in testdata/digests.json)", bv, name)
	case want != m.digest:
		m.fail("sim digest %s, testdata/digests.json pins %s for behavior %s", m.digest, want, bv)
	}
}

// measureTraced is the --trace 1 run: half the window untraced, half with
// spans and a CPU profile, then the layer drivers.
func measureTraced(name string, cfg config, w workload, window time.Duration, tr *tracer) (*measurement, error) {
	u, err := w.measure(window/2, nil)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	m, err := w.measure(window/2, tr)
	pprof.StopCPUProfile()
	rt := readRuntime().since(rt0)
	if err != nil {
		return nil, err
	}
	m.merge(u)
	w.finish(m)

	inputs, err := w.programs()
	if err != nil {
		return nil, err
	}
	id, end := tr.begin("layer drivers", 0, 0, 0)
	d, err := runDrivers(cfg, inputs, payloadsOf(m), tr, id)
	end()
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	v := layerValues(m, d, shares, rt)
	v["kernels.build_ms"] = 1000 * tr.total("kernels.Build")
	v["trace_overhead_pct"] = 100 * (percentile(m.ops, 50)/percentile(u.ops, 50) - 1)
	m.layers = withUnits(perLayer, v)

	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.json", name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	log.Printf("spans written to %s", path)
	return m, nil
}

// runtimeSample is a snapshot of the process counters behind the
// runtime.* per-layer metrics.
type runtimeSample struct {
	gcCPU, idleCPU, totalCPU float64 // runtime/metrics CPU classes, seconds
	osCPU                    float64 // user+system seconds (getrusage)
	allocs                   uint64
	at                       time.Time
}

// runtimeDelta is what the counters accumulated over a window.
type runtimeDelta struct {
	gcCPU, idleCPU, totalCPU, osCPU, wall float64
	allocs                                uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero on failure: cpu_util reads 0
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return runtimeSample{
		gcCPU: s[0].Value.Float64(), idleCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64(),
		osCPU:  tv(ru.Utime) + tv(ru.Stime),
		allocs: s[3].Value.Uint64(),
		at:     time.Now(),
	}
}

func (r runtimeSample) since(e runtimeSample) runtimeDelta {
	return runtimeDelta{
		gcCPU: r.gcCPU - e.gcCPU, idleCPU: r.idleCPU - e.idleCPU, totalCPU: r.totalCPU - e.totalCPU,
		osCPU: r.osCPU - e.osCPU, wall: r.at.Sub(e.at).Seconds(),
		allocs: r.allocs - e.allocs,
	}
}

// median returns the middle of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
