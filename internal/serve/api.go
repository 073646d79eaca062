package serve

import (
	"fmt"

	blp "repro"
	"repro/internal/core"
	"repro/internal/kernels"
)

// SchemaVersion identifies the JSON layout of the serve API's own
// responses (RunResponse, SweepItem, MetricsSnapshot). Figure endpoints
// reuse blp.Report, which carries blp.MetricsSchemaVersion.
//
// Adding a field does not bump it: a client must ignore keys it does
// not know, so a new counter — in MetricsSnapshot, or in the
// blp.RunnerStats, blp.CacheStats and store.Stats it renders — is a
// compatible change. Removing or renaming a key, or changing what one
// means, bumps it.
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
//
// v9: MetricsSnapshot lost the v2 additions — trace_cache and
// sims.captured/replayed — with the trace capture and replay they
// counted.
const SchemaVersion = 9

// RunRequest is the wire form of blp.Options. Omitted fields select the
// paper's defaults exactly as the zero-valued Options fields do.
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

// maxInputLog2 bounds a requested input: 2^scale·degree at most
// 2^maxInputLog2 (see RunRequest.Options).
const maxInputLog2 = 26

// Options maps the request to blp.Options and validates it, so a bad
// request costs a 400 and nothing else. Only the wire's own rules live
// here: the mode's spelling, and the bounds an outside caller may not
// exceed though the library allows them (an input that fits in memory,
// at most 256 cores, and only the tage or oracle predictor). Every other
// rule is blp.Options.Validate's. Integer options whose zero value means
// "default" accept -1 to request an explicit 0.
func (rq RunRequest) Options() (blp.Options, error) {
	mode, err := kernels.ParseSliceMode(rq.Mode)
	if err != nil {
		return blp.Options{}, err
	}
	if rq.Cores > 256 {
		return blp.Options{}, fmt.Errorf("cores %d out of range (at most 256)", rq.Cores)
	}
	switch rq.Predictor {
	case "", "tage", "oracle":
	default:
		return blp.Options{}, fmt.Errorf("unknown predictor %q (tage or oracle)", rq.Predictor)
	}
	o := blp.Options{
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
	// graph.RMAT allocates 2·2^scale·degree 8-byte edges up front and ms
	// two 2^scale-word arrays; an allocation that large would end the
	// server with a fatal out-of-memory error. Scale at most 26 and
	// degree at most 2^(26−scale), both after defaulting, bound
	// 2^scale·degree by 2^26 with no multiply to overflow, and admit
	// RMAT-22 at degree 16, the paper's largest input. ms ignores degree
	// but is held to the same bound, so it peaks at scale 22.
	sp, _ := kernels.Spec{Kernel: o.Benchmark, Scale: o.Scale, Degree: o.Degree}.Normalize() // Validate passed
	if sp.Scale > maxInputLog2 || sp.Degree > 1<<(maxInputLog2-sp.Scale) {
		return blp.Options{}, fmt.Errorf("scale %d at degree %d out of range (scale at most %d, degree at most 2^(%d-scale))",
			sp.Scale, sp.Degree, maxInputLog2, maxInputLog2)
	}
	return o, nil
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
