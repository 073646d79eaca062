// Package kernels implements the paper's benchmarks in the virtual ISA:
// the six GAP graph kernels — betweenness centrality (bc), breadth-first
// search (bfs), connected components (cc), pagerank (pr), single-source
// shortest paths (sssp), triangle counting (tc) — plus merge sort (ms),
// each with the slice-instruction placements §6.1 evaluates.
//
// Every kernel builds one program per hardware thread (OpenMP-style static
// chunking of the parallel loops, with barriers between phases) against a
// shared memory image, and supplies a host-reference Check for the final
// memory. Baseline binaries (SliceNone) contain no slice instructions,
// exactly as the paper's unmodified GAP builds.
package kernels

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/memo"
	"repro/internal/sim"
)

// SliceMode selects where slice instructions are placed (§6.1).
type SliceMode int

// Slice placements. Inner slicing is available only where the paper found
// inner-loop iterations independent: bc, cc, and sssp.
const (
	SliceNone SliceMode = iota
	SliceOuter
	SliceInner
)

func (m SliceMode) String() string {
	switch m {
	case SliceNone:
		return "none"
	case SliceOuter:
		return "outer"
	case SliceInner:
		return "inner"
	}
	return fmt.Sprintf("SliceMode(%d)", int(m))
}

// ParseSliceMode is the inverse of String: "none" (or ""), "outer" or
// "inner".
func ParseSliceMode(s string) (SliceMode, error) {
	if s == "" {
		return SliceNone, nil
	}
	for m := SliceNone; m <= SliceInner; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	return SliceNone, fmt.Errorf("unknown mode %q (none, outer, or inner)", s)
}

// Names lists the benchmarks in the paper's reporting order.
var Names = []string{"bc", "bfs", "cc", "pr", "sssp", "tc", "ms"}

// InnerSliceable reports whether the kernel supports SliceInner (§6.1:
// bfs and tc have control-dependent inner iterations, pr has no
// conditional in its inner loop, and ms's merge loop is dependent).
func InnerSliceable(kernel string) bool {
	switch kernel {
	case "bc", "cc", "sssp":
		return true
	}
	return false
}

// DefaultPRIters is the default number of PageRank sweeps.
const DefaultPRIters = 3

// Spec describes one benchmark instance.
type Spec struct {
	Kernel  string
	Scale   int    // log2 of the vertex count (element count for ms)
	Degree  int    // average degree for RMAT generation
	Seed    uint64 // RMAT / data seed
	Mode    SliceMode
	Threads int // hardware threads (cores × SMT); parallel loops are chunked
	PRIters int // pagerank sweeps (0 = DefaultPRIters)
}

// DefaultScale returns the baseline input scale per kernel. The paper uses
// per-application sizes for comparable runtimes (RMAT-18 for tc, RMAT-20
// for bc/cc/pr/sssp, RMAT-22 for bfs); these are the same relative choices
// shrunk to simulation budget, with the cache hierarchy shrunk to match
// (sim.ScaledMemConfig). The absolute sizes are calibrated against the
// baseline statistics the paper reports in §3 — oracle-predictor speedup
// (paper 1.60×, measured ≈1.45× harmonic mean at these scales) and
// wrong-path dispatch overhead (paper +53%, measured per-kernel 0.2-2.3×
// bracketing it) — see DESIGN.md's calibration notes.
func DefaultScale(kernel string) int {
	switch kernel {
	case "tc":
		return 8
	case "bfs":
		return 11
	case "ms":
		return 12
	default:
		return 10
	}
}

// Normalize fills zero fields with defaults and validates the spec: a
// known kernel, inner slicing only where §6.1 allows it, and no negative
// Scale, Degree, Threads or PRIters.
func (s Spec) Normalize() (Spec, error) {
	switch {
	case s.Scale < 0:
		return s, fmt.Errorf("kernels: scale %d is negative", s.Scale)
	case s.Degree < 0:
		return s, fmt.Errorf("kernels: degree %d is negative", s.Degree)
	case s.Threads < 0:
		return s, fmt.Errorf("kernels: %d hardware threads (cores × SMT) is negative", s.Threads)
	case s.PRIters < 0:
		return s, fmt.Errorf("kernels: %d pagerank sweeps is negative", s.PRIters)
	}
	if s.Scale == 0 {
		s.Scale = DefaultScale(s.Kernel)
	}
	if s.Degree == 0 {
		s.Degree = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Threads == 0 {
		s.Threads = 1
	}
	if s.PRIters == 0 {
		s.PRIters = DefaultPRIters
	}
	if s.Mode == SliceInner && !InnerSliceable(s.Kernel) {
		return s, fmt.Errorf("kernels: %s does not support inner slicing (§6.1)", s.Kernel)
	}
	if builders[s.Kernel] == nil {
		return s, fmt.Errorf("kernels: unknown kernel %q (one of %s)", s.Kernel, strings.Join(Names, ", "))
	}
	return s, nil
}

// Build constructs a fresh workload for a spec: its memory image, one
// program per hardware thread, and the host-reference Check. Only the
// generated input graph is shared between builds (see graphs), so the
// caller owns everything it receives.
func Build(spec Spec) (*sim.Workload, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	return builders[spec.Kernel](spec), nil
}

// builders holds each kernel's workload builder.
var builders = map[string]func(Spec) *sim.Workload{
	"bc": buildBC, "bfs": buildBFS, "cc": buildCC, "pr": buildPR,
	"sssp": buildSSSP, "tc": buildTC, "ms": buildMS,
}

// chunk returns the [lo,hi) range of n items assigned to thread t of T
// (OpenMP static scheduling).
func chunk(n, T, t int) (int, int) {
	return n * t / T, n * (t + 1) / T
}

// graphBudget bounds the bytes of generated graphs kept resident. A
// default-scale "experiments -fig all" reads 11 distinct graphs, 7.4 MiB
// of CSR arrays, so the budget holds them several times over; a single
// larger graph is still kept alone (memo never evicts its newest entry).
const graphBudget = 64 << 20

// graphs memoizes generated graphs, the one input worth sharing between
// builds: the figures vary only the machine over fixed inputs, and RMAT
// generation is most of a build. Each graph is charged the capacity of
// its arrays.
var graphs = memo.New(graphBudget, graphCost)

func graphCost(_ string, g *graph.CSR) int64 {
	return 4 * int64(cap(g.Offsets)+cap(g.Neigh)+cap(g.Weights))
}

func getGraph(spec Spec, weighted bool) *graph.CSR {
	key := fmt.Sprintf("s%d-d%d-seed%d-w%v", spec.Scale, spec.Degree, spec.Seed, weighted)
	g, err, _ := graphs.Do(context.TODO(), key, func() (*graph.CSR, error) {
		return graph.RMAT(spec.Scale, spec.Degree, spec.Seed, weighted), nil
	})
	if err != nil {
		panic(err) // the generation this build joined panicked
	}
	return g
}

// sourceVertex picks the BFS/SSSP/BC source: the highest-degree vertex,
// deterministic and guaranteed to reach the bulk of an RMAT graph.
func sourceVertex(g *graph.CSR) int {
	best, bestDeg := 0, -1
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// inf32 is the sentinel "unvisited" distance.
const inf32 = 0xFFFFFFFF
