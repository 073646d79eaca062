package serve

import (
	"fmt"

	blp "repro"
	"repro/internal/core"
)

// SchemaVersion identifies the JSON layout of the serve API's own
// responses (RunResponse, SweepItem, MetricsSnapshot). Figure endpoints
// reuse blp.Report, which carries blp.MetricsSchemaVersion.
//
// v2: MetricsSnapshot gained trace_cache and sims.captured/replayed
// (the trace-once/simulate-many counters).
//
// v3: MetricsSnapshot gained store (the durable result store's
// hit/miss/write/invalidated counters and resident set; null when the
// server runs without one) and behavior_version (the stamp persisted
// objects are keyed under).
//
// v4: MetricsSnapshot gained the batched-replay counters: sims.batched
// and sims.batch_groups (same-workload fan-outs run as one shared-decode
// batch), the seg_* wrong-path segment-cache counters (hits, misses,
// invalidated, and bypassed — forks after a trace's cache disabled its
// own recording), and batch_group_sizes (histogram of lanes per batch,
// keyed by size).
//
// v5: RunRequest gained policy (the recovery-policy selector), and
// ResultJSON's stats gained the policy diagnostics DrainCycles and
// ThrottledCycles.
//
// v6: cluster mode. RunResponse and SweepItem gained node (the
// advertised name of the member that executed the run; omitted on an
// unclustered server), MetricsSnapshot gained cluster (ring membership
// plus per-peer forwarded/failed/fallback counters; null when
// unclustered), and /healthz gained the cluster section.
//
// v7: MetricsSnapshot lost the v4 batched-replay and segment-cache
// fields — sims.batched, sims.batch_groups, sims.seg_* and
// batch_group_sizes — with the batched replay and wrong-path segment
// cache they counted.
//
// v8: cluster mode is gone, and with it the v6 additions: node on
// RunResponse and SweepItem, cluster on MetricsSnapshot, and the
// cluster section of /healthz.
const SchemaVersion = 8

// Zero is the wire spelling of blp.Zero: integer options whose zero
// value means "default" accept -1 to request an explicit 0.
const Zero = blp.Zero

// RunRequest is the wire form of blp.Options. Omitted fields select the
// paper's defaults exactly as the zero-valued Options fields do; the
// output-only fields (TraceEvents, Flight) are intentionally absent —
// they make no sense across an HTTP boundary.
type RunRequest struct {
	Benchmark string `json:"benchmark"`
	Mode      string `json:"mode,omitempty"` // "", "none", "outer", "inner"

	Scale  int    `json:"scale,omitempty"`
	Degree int    `json:"degree,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`

	Cores int `json:"cores,omitempty"`
	SMT   int `json:"smt,omitempty"`

	Predictor    string `json:"predictor,omitempty"`
	Policy       string `json:"policy,omitempty"` // "", "auto", "selective", "conventional", "partial[:N|:inf]", "throttle[:C]"
	Reserve      int    `json:"reserve,omitempty"`
	ROBBlockSize int    `json:"rob_block_size,omitempty"`
	FRQSize      int    `json:"frq_size,omitempty"`
	PRIters      int    `json:"pr_iters,omitempty"`

	PaperScaleMem      bool  `json:"paper_scale_mem,omitempty"`
	WrongPathMemAccess bool  `json:"wrong_path_mem_access,omitempty"`
	CheckIndependence  bool  `json:"check_independence,omitempty"`
	WatchdogCycles     int64 `json:"watchdog_cycles,omitempty"`
}

// Options validates the request and maps it to blp.Options. Validation
// is deliberately static — anything that can be rejected without
// spending simulation time is, so malformed requests cost a 400 and
// nothing else. Deeper structural errors (e.g. a zero reserve under
// selective flush) surface from the run itself.
func (rq RunRequest) Options() (blp.Options, error) {
	var o blp.Options
	if rq.Benchmark == "" {
		return o, fmt.Errorf("benchmark is required (one of %v)", blp.Benchmarks)
	}
	known := false
	for _, b := range blp.Benchmarks {
		if rq.Benchmark == b {
			known = true
			break
		}
	}
	if !known {
		return o, fmt.Errorf("unknown benchmark %q (one of %v)", rq.Benchmark, blp.Benchmarks)
	}
	mode, err := parseMode(rq.Mode)
	if err != nil {
		return o, err
	}
	if mode == blp.SliceInner && !blp.InnerSliceable(rq.Benchmark) {
		return o, fmt.Errorf("benchmark %q does not support inner slicing", rq.Benchmark)
	}
	if rq.Scale < 0 || rq.Scale > 30 {
		return o, fmt.Errorf("scale %d out of range [0, 30]", rq.Scale)
	}
	if rq.Degree < 0 {
		return o, fmt.Errorf("degree %d must be non-negative", rq.Degree)
	}
	if rq.Cores < 0 || rq.Cores > 256 {
		return o, fmt.Errorf("cores %d out of range [0, 256]", rq.Cores)
	}
	switch rq.SMT {
	case 0, 1, 2, 4:
	default:
		return o, fmt.Errorf("smt %d must be 1, 2, or 4", rq.SMT)
	}
	switch rq.Predictor {
	case "", "tage", "oracle":
	default:
		return o, fmt.Errorf("unknown predictor %q (tage or oracle)", rq.Predictor)
	}
	// "" and "auto" follow the slice mode (see blp.Options.Policy).
	if rq.Policy != "" && rq.Policy != "auto" {
		if _, err := core.ParsePolicy(rq.Policy); err != nil {
			return o, err
		}
	}
	for name, v := range map[string]int{
		"reserve": rq.Reserve, "rob_block_size": rq.ROBBlockSize,
		"frq_size": rq.FRQSize, "pr_iters": rq.PRIters,
	} {
		if v < blp.Zero {
			return o, fmt.Errorf("%s %d must be >= -1 (-1 means an explicit 0)", name, v)
		}
	}
	if rq.WatchdogCycles < 0 {
		return o, fmt.Errorf("watchdog_cycles %d must be non-negative", rq.WatchdogCycles)
	}
	o = blp.Options{
		Benchmark:          rq.Benchmark,
		Mode:               mode,
		Scale:              rq.Scale,
		Degree:             rq.Degree,
		Seed:               rq.Seed,
		Cores:              rq.Cores,
		SMT:                rq.SMT,
		Predictor:          rq.Predictor,
		Policy:             rq.Policy,
		Reserve:            rq.Reserve,
		ROBBlockSize:       rq.ROBBlockSize,
		FRQSize:            rq.FRQSize,
		PRIters:            rq.PRIters,
		PaperScaleMem:      rq.PaperScaleMem,
		WrongPathMemAccess: rq.WrongPathMemAccess,
		CheckIndependence:  rq.CheckIndependence,
		WatchdogCycles:     rq.WatchdogCycles,
	}
	if err := o.Validate(); err != nil {
		return blp.Options{}, err
	}
	return o, nil
}

func parseMode(s string) (blp.SliceMode, error) {
	switch s {
	case "", "none":
		return blp.SliceNone, nil
	case "outer":
		return blp.SliceOuter, nil
	case "inner":
		return blp.SliceInner, nil
	}
	return blp.SliceNone, fmt.Errorf("unknown mode %q (none, outer, or inner)", s)
}

// ResultJSON is the wire form of blp.Result. Float summaries use
// blp.Metric so unmeasurable values (NaN) encode as null instead of
// breaking encoding/json.
type ResultJSON struct {
	Cycles       int64        `json:"cycles"`
	IPC          blp.Metric   `json:"ipc"`
	LLCMissRate  blp.Metric   `json:"llc_miss_rate"`
	DRAMBusy     blp.Metric   `json:"dram_busy"`
	EnergyUseful blp.Metric   `json:"energy_useful"`
	Stats        core.Stats   `json:"stats"`
	PerCore      []core.Stats `json:"per_core,omitempty"`
}

func resultJSON(r *blp.Result) *ResultJSON {
	if r == nil {
		return nil
	}
	return &ResultJSON{
		Cycles:       r.Cycles,
		IPC:          blp.Metric(r.IPC),
		LLCMissRate:  blp.Metric(r.LLCMissRate),
		DRAMBusy:     blp.Metric(r.DRAMBusy),
		EnergyUseful: blp.Metric(r.EnergyUseful),
		Stats:        r.Stats,
		PerCore:      r.PerCore,
	}
}

// RunResponse answers POST /v1/run.
type RunResponse struct {
	SchemaVersion int `json:"schema_version"`
	// Key is the canonical memoization identity of the run (Options.Key).
	Key string `json:"key"`
	// Cached reports whether the result was shared — served from the
	// resident cache or joined to an identical in-flight simulation —
	// rather than freshly simulated for this request.
	Cached    bool        `json:"cached"`
	ElapsedMS float64     `json:"elapsed_ms"`
	Result    *ResultJSON `json:"result"`
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Runs []RunRequest `json:"runs"`
}

// SweepItem is one NDJSON line of a sweep response, emitted in
// completion order as each run finishes; Index maps it back to the
// request's runs array. Error is set (and Result nil) when that single
// run failed; other runs continue.
type SweepItem struct {
	SchemaVersion int         `json:"schema_version"`
	Index         int         `json:"index"`
	Key           string      `json:"key"`
	Cached        bool        `json:"cached"`
	ElapsedMS     float64     `json:"elapsed_ms"`
	Result        *ResultJSON `json:"result,omitempty"`
	Error         string      `json:"error,omitempty"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}
