package blp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Figure is the regenerated form of one paper table or figure: a text
// table with the same rows/series the paper reports, plus the raw values
// for programmatic checks (benchmarks and tests).
type Figure struct {
	ID     string
	Title  string
	Table  *stats.Table
	Notes  string
	Values map[string]float64
}

func (f *Figure) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", f.ID, f.Title, f.Table)
	if f.Notes != "" {
		s += "notes: " + f.Notes + "\n"
	}
	return s
}

func (f *Figure) set(key string, v float64) {
	if f.Values == nil {
		f.Values = map[string]float64{}
	}
	f.Values[key] = v
}

// addNote appends a note sentence, separating it from existing notes.
func (f *Figure) addNote(n string) {
	if n == "" {
		return
	}
	if f.Notes != "" {
		f.Notes += "; "
	}
	f.Notes += n
}

// BestMode returns the slice placement used for the single-number
// experiments (Figs. 5-11), following the paper's prescription to "test a
// few options" and pick the best (§6.1). In the paper that is outer for
// bc and inner for cc; in this reproduction Fig. 4 measures inner best
// for bc and sssp and outer best for cc (our cc-inner variant re-reads
// comp[v] per edge — a heavier code shape than the annotation-only change
// GAP permits; see EXPERIMENTS.md).
func BestMode(benchmark string) SliceMode {
	switch benchmark {
	case "bc", "sssp":
		return SliceInner
	default:
		return SliceOuter
	}
}

// minScale is the floor below which inputs stop exercising the simulated
// hierarchy at all; scaled clamps to it.
const minScale = 6

// scaled adjusts a benchmark's input scale by delta (quick sweeps pass a
// negative delta to trade fidelity for time), clamping at minScale.
// Figures that use it report any clamping via scaleNote, so output never
// silently labels identical inputs with different requested deltas.
func scaled(benchmark string, delta int) int {
	s := DefaultScale(benchmark) + delta
	if s < minScale {
		s = minScale
	}
	return s
}

// scaleNote reports the benchmarks whose requested scale was clamped to
// the minScale floor at the given delta, with the effective scale used.
func scaleNote(delta int) string {
	var clamped []string
	for _, b := range Benchmarks {
		want := DefaultScale(b) + delta
		if eff := scaled(b, delta); eff != want {
			clamped = append(clamped, fmt.Sprintf("%s=%d (requested %d)", b, eff, want))
		}
	}
	if len(clamped) == 0 {
		return ""
	}
	return "effective scales clamped: " + strings.Join(clamped, ", ")
}

// batch accumulates named run requests so a figure can declare every
// simulation it needs up front, execute the whole set concurrently
// through the Runner, and then assemble its table serially in
// deterministic order.
type batch struct {
	names []string
	opts  []Options
	added map[string]Options
	res   map[string]*Result
}

func (b *batch) add(name string, o Options) {
	if b.added == nil {
		b.added = map[string]Options{}
		b.res = map[string]*Result{}
	}
	if prev, dup := b.added[name]; dup {
		if prev != o {
			panic("blp: conflicting run requests named " + name)
		}
		return // identical duplicate (e.g. a repeated sweep value)
	}
	b.added[name] = o
	b.names = append(b.names, name)
	b.opts = append(b.opts, o)
}

func (b *batch) run(r *Runner) error {
	results, err := r.RunAll(b.opts)
	if err != nil {
		return err
	}
	for i, name := range b.names {
		b.res[name] = results[i]
	}
	return nil
}

func (b *batch) get(name string) *Result {
	res, ok := b.res[name]
	if !ok || res == nil {
		panic("blp: no result for run request " + name)
	}
	return res
}

// Motivation reproduces the §3 baseline statistics: wrong-path dispatch
// overhead and the oracle-predictor speedup for every benchmark.
func (r *Runner) Motivation(scaleDelta int) (*Figure, error) {
	f := &Figure{
		ID:    "motivation",
		Title: "§3 baseline branch statistics (TAGE vs oracle)",
		Table: stats.NewTable("bench", "MPKI", "wrongPath/correct", "oracle speedup"),
	}
	var reqs batch
	for _, b := range Benchmarks {
		reqs.add("base/"+b, Options{Benchmark: b, Scale: scaled(b, scaleDelta)})
		reqs.add("oracle/"+b, Options{Benchmark: b, Scale: scaled(b, scaleDelta), Predictor: "oracle"})
	}
	if err := reqs.run(r); err != nil {
		return nil, err
	}
	var wpSum, orSum []float64
	for _, b := range Benchmarks {
		base, orc := reqs.get("base/"+b), reqs.get("oracle/"+b)
		wp := float64(base.Stats.DispWrong) / float64(base.Stats.DispCorrect)
		sp := Speedup(base, orc)
		f.Table.AddRow(b, base.Stats.MPKI(), wp, sp)
		f.set("wp/"+b, wp)
		f.set("oracle/"+b, sp)
		wpSum = append(wpSum, wp)
		orSum = append(orSum, sp)
	}
	f.Table.AddRow("mean", "", mean(wpSum), stats.HarmonicMeanSpeedup(orSum))
	f.set("oracle/hmean", stats.HarmonicMeanSpeedup(orSum))
	f.Notes = "paper: +53% wrong-path dispatches, oracle +60% (§3)"
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table1 renders the simulated configuration next to the paper's.
func Table1() *Figure {
	c := core.DefaultConfig()
	f := &Figure{
		ID:    "table1",
		Title: "Simulated processor configuration",
		Table: stats.NewTable("parameter", "paper", "this model"),
	}
	f.Table.AddRow("dispatch/commit width", "4", fmt.Sprintf("%d/%d", c.DispatchWidth, c.CommitWidth))
	f.Table.AddRow("reorder buffer", "224", fmt.Sprint(c.ROBSize))
	f.Table.AddRow("reservation stations", "97", fmt.Sprint(c.RS))
	f.Table.AddRow("load/store queue", "72/56", fmt.Sprintf("%d/%d", c.LQ, c.SQ))
	f.Table.AddRow("branch predictor", "TAGE", c.Predictor)
	f.Table.AddRow("L1 I/D", "32 KB/32 KB", "scaled (see sim.ScaledMemConfig)")
	f.Table.AddRow("L2 private", "1 MB", "scaled")
	f.Table.AddRow("LLC NUCA", "1.375 MB/core", "scaled")
	f.Table.AddRow("memory latency", "50 ns", "150 cycles")
	f.Table.AddRow("reserve (§4.7)", "8", fmt.Sprint(c.Reserve))
	f.Table.AddRow("FRQ entries", "8", fmt.Sprint(c.FRQSize))
	f.Notes = "full-size hierarchy available via Options.PaperScaleMem"
	return f
}

// Fig4 reproduces the single-core speedups: inner/outer slicing where
// available, plus perfect branch prediction, per benchmark, with the
// harmonic means the paper quotes (1.29 overall, 1.35 without pr, 1.60
// perfect).
func (r *Runner) Fig4(scaleDelta int) (*Figure, error) {
	f := &Figure{
		ID:    "fig4",
		Title: "Speedup vs baseline: slicing placements and perfect prediction",
		Table: stats.NewTable("bench", "inner", "outer", "perfect"),
	}
	var reqs batch
	for _, b := range Benchmarks {
		o := Options{Benchmark: b, Scale: scaled(b, scaleDelta)}
		reqs.add("base/"+b, o)
		if InnerSliceable(b) {
			oi := o
			oi.Mode = SliceInner
			reqs.add("inner/"+b, oi)
		}
		oo := o
		oo.Mode = SliceOuter
		reqs.add("outer/"+b, oo)
		op := o
		op.Predictor = "oracle"
		reqs.add("perfect/"+b, op)
	}
	if err := reqs.run(r); err != nil {
		return nil, err
	}
	var best, bestNoPR, perfect []float64
	for _, b := range Benchmarks {
		base := reqs.get("base/" + b)
		inner := "-"
		innerV := 0.0
		if InnerSliceable(b) {
			innerV = Speedup(base, reqs.get("inner/"+b))
			inner = fmt.Sprintf("%.3f", innerV)
			f.set("inner/"+b, innerV)
		}
		outerV := Speedup(base, reqs.get("outer/"+b))
		orcV := Speedup(base, reqs.get("perfect/"+b))
		f.Table.AddRow(b, inner, outerV, orcV)
		f.set("outer/"+b, outerV)
		f.set("perfect/"+b, orcV)

		bv := outerV
		if innerV > bv {
			bv = innerV
		}
		f.set("best/"+b, bv)
		best = append(best, bv)
		if b != "pr" {
			bestNoPR = append(bestNoPR, bv)
		}
		perfect = append(perfect, orcV)
	}
	hm := stats.HarmonicMeanSpeedup(best)
	hmNoPR := stats.HarmonicMeanSpeedup(bestNoPR)
	hmP := stats.HarmonicMeanSpeedup(perfect)
	f.Table.AddRow("hmean(best)", "", hm, hmP)
	f.set("hmean", hm)
	f.set("hmeanNoPR", hmNoPR)
	f.set("hmeanPerfect", hmP)
	f.Notes = fmt.Sprintf("paper: best-hmean 1.29 (1.35 w/o pr), perfect 1.60; measured w/o pr: %.3f", hmNoPR)
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// Fig5 reproduces the cycle stacks (exec/branch/mem/other) of baseline
// and sliced execution, normalized to the baseline cycle count.
func (r *Runner) Fig5(scaleDelta int) (*Figure, error) {
	f := &Figure{
		ID:    "fig5",
		Title: "Cycle stacks, normalized to baseline cycles",
		Table: stats.NewTable("bench", "run", "exec", "branch", "mem", "other", "total"),
	}
	var reqs batch
	for _, b := range Benchmarks {
		reqs.add("base/"+b, Options{Benchmark: b, Scale: scaled(b, scaleDelta)})
		reqs.add("sliced/"+b, Options{Benchmark: b, Scale: scaled(b, scaleDelta), Mode: BestMode(b)})
	}
	if err := reqs.run(r); err != nil {
		return nil, err
	}
	for _, b := range Benchmarks {
		base, sl := reqs.get("base/"+b), reqs.get("sliced/"+b)
		norm := float64(base.Cycles)
		for _, r := range []struct {
			name string
			res  *Result
		}{{"orig", base}, {"sliced", sl}} {
			s := r.res.Stats
			f.Table.AddRow(b, r.name,
				s.StackExec/norm, s.StackBranch/norm, s.StackMem/norm,
				s.StackOther/norm, float64(r.res.Cycles)/norm)
			f.set(fmt.Sprintf("%s/%s/branch", b, r.name), s.StackBranch/norm)
			f.set(fmt.Sprintf("%s/%s/mem", b, r.name), s.StackMem/norm)
		}
	}
	f.Notes = "paper: slicing shrinks the branch component; mem grows slightly"
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// Fig6 reproduces the dispatched-instruction breakdown: correct path,
// wrong path, and slice-instruction overhead, normalized to the baseline
// correct-path count.
func (r *Runner) Fig6(scaleDelta int) (*Figure, error) {
	f := &Figure{
		ID:    "fig6",
		Title: "Dispatched instructions, normalized to correct-path count",
		Table: stats.NewTable("bench", "run", "correct", "wrongPath", "overhead"),
	}
	var reqs batch
	for _, b := range Benchmarks {
		reqs.add("base/"+b, Options{Benchmark: b, Scale: scaled(b, scaleDelta)})
		reqs.add("sliced/"+b, Options{Benchmark: b, Scale: scaled(b, scaleDelta), Mode: BestMode(b)})
	}
	if err := reqs.run(r); err != nil {
		return nil, err
	}
	for _, b := range Benchmarks {
		base, sl := reqs.get("base/"+b), reqs.get("sliced/"+b)
		norm := float64(base.Stats.DispCorrect)
		for _, r := range []struct {
			name string
			res  *Result
		}{{"orig", base}, {"sliced", sl}} {
			s := r.res.Stats
			f.Table.AddRow(b, r.name, float64(s.DispCorrect)/norm,
				float64(s.DispWrong)/norm, float64(s.DispOverhead)/norm)
			f.set(fmt.Sprintf("%s/%s/wrong", b, r.name), float64(s.DispWrong)/norm)
		}
		f.set(fmt.Sprintf("%s/overhead", b), float64(sl.Stats.DispOverhead)/norm)
	}
	f.Notes = "paper: slicing cuts wrong-path dispatches; sssp overhead exceeds the saving"
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// Fig7 sweeps the §4.7 resource reservation (RS/LQ/SQ entries reserved
// for resolve paths). A reserve value of 0 is passed to the simulator as
// the explicit-zero sentinel (see Options.Reserve); the core rejects it
// under selective flush, surfacing the §4.7 forward-progress argument as
// an error rather than a silent fallback to the default.
func (r *Runner) Fig7(scaleDelta int, reserves []int) (*Figure, error) {
	if len(reserves) == 0 {
		reserves = []int{1, 2, 4, 8, 16, 32}
	}
	header := []string{"bench"}
	for _, rv := range reserves {
		header = append(header, fmt.Sprintf("r=%d", rv))
	}
	f := &Figure{
		ID:    "fig7",
		Title: "Sliced speedup vs entries reserved for resolve paths",
		Table: stats.NewTable(header...),
	}
	var reqs batch
	for _, b := range Benchmarks {
		reqs.add("base/"+b, Options{Benchmark: b, Scale: scaled(b, scaleDelta)})
		for _, rv := range reserves {
			reserve := rv
			if reserve == 0 {
				reserve = Zero
			}
			reqs.add(fmt.Sprintf("r%d/%s", rv, b), Options{Benchmark: b,
				Scale: scaled(b, scaleDelta), Mode: BestMode(b), Reserve: reserve})
		}
	}
	if err := reqs.run(r); err != nil {
		return nil, err
	}
	for _, b := range Benchmarks {
		base := reqs.get("base/" + b)
		row := []any{b}
		for _, rv := range reserves {
			sp := Speedup(base, reqs.get(fmt.Sprintf("r%d/%s", rv, b)))
			row = append(row, sp)
			f.set(fmt.Sprintf("%s/r%d", b, rv), sp)
		}
		f.Table.AddRow(row...)
	}
	f.Notes = "paper: flat (or improving, bc) to 16 reserved entries, drop at 32"
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// Fig8 sweeps the blocked linked-list ROB block size.
func (r *Runner) Fig8(scaleDelta int, blocks []int) (*Figure, error) {
	if len(blocks) == 0 {
		blocks = []int{1, 2, 4, 8, 16}
	}
	header := []string{"bench"}
	for _, bsz := range blocks {
		header = append(header, fmt.Sprintf("b=%d", bsz))
	}
	f := &Figure{
		ID:    "fig8",
		Title: "Sliced speedup vs ROB block size (gaps/padding overhead)",
		Table: stats.NewTable(header...),
	}
	var reqs batch
	for _, b := range Benchmarks {
		reqs.add("base/"+b, Options{Benchmark: b, Scale: scaled(b, scaleDelta)})
		for _, bsz := range blocks {
			reqs.add(fmt.Sprintf("b%d/%s", bsz, b), Options{Benchmark: b,
				Scale: scaled(b, scaleDelta), Mode: BestMode(b), ROBBlockSize: bsz})
		}
	}
	if err := reqs.run(r); err != nil {
		return nil, err
	}
	perBlock := map[int][]float64{}
	for _, b := range Benchmarks {
		base := reqs.get("base/" + b)
		row := []any{b}
		for _, bsz := range blocks {
			sp := Speedup(base, reqs.get(fmt.Sprintf("b%d/%s", bsz, b)))
			row = append(row, sp)
			f.set(fmt.Sprintf("%s/b%d", b, bsz), sp)
			perBlock[bsz] = append(perBlock[bsz], sp)
		}
		f.Table.AddRow(row...)
	}
	row := []any{"hmean"}
	for _, bsz := range blocks {
		hm := stats.HarmonicMeanSpeedup(perBlock[bsz])
		row = append(row, hm)
		f.set(fmt.Sprintf("hmean/b%d", bsz), hm)
	}
	f.Table.AddRow(row...)
	f.Notes = "paper: ≤4 negligible, −4.1% at 8, −9.5% at 16"
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// Fig9 sweeps input size (1×, 2×, 4×, 8× vertices).
func (r *Runner) Fig9(scaleDelta int) (*Figure, error) {
	factors := []int{0, 1, 2, 3} // scale deltas = log2 of the size factor
	f := &Figure{
		ID:    "fig9",
		Title: "Sliced speedup vs input size (×1, ×2, ×4, ×8)",
		Table: stats.NewTable("bench", "x1", "x2", "x4", "x8"),
	}
	var reqs batch
	for _, b := range Benchmarks {
		for _, d := range factors {
			sc := scaled(b, scaleDelta) + d
			reqs.add(fmt.Sprintf("base/%s/x%d", b, d), Options{Benchmark: b, Scale: sc})
			reqs.add(fmt.Sprintf("sliced/%s/x%d", b, d), Options{Benchmark: b, Scale: sc, Mode: BestMode(b)})
		}
	}
	if err := reqs.run(r); err != nil {
		return nil, err
	}
	perFactor := map[int][]float64{}
	for _, b := range Benchmarks {
		row := []any{b}
		for _, d := range factors {
			base := reqs.get(fmt.Sprintf("base/%s/x%d", b, d))
			sl := reqs.get(fmt.Sprintf("sliced/%s/x%d", b, d))
			sp := Speedup(base, sl)
			row = append(row, sp)
			f.set(fmt.Sprintf("%s/x%d", b, 1<<d), sp)
			perFactor[d] = append(perFactor[d], sp)
		}
		f.Table.AddRow(row...)
	}
	row := []any{"hmean"}
	for _, d := range factors {
		row = append(row, stats.HarmonicMeanSpeedup(perFactor[d]))
	}
	f.Table.AddRow(row...)
	f.Notes = "paper: no clear trend; average 1.27-1.31 across sizes"
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// Fig10 compares multicore speedups against single-core speedups (the
// paper runs 28 cores with 16× inputs; pass cores and sizeDelta to scale
// the experiment to budget).
func (r *Runner) Fig10(scaleDelta, cores, sizeDelta int) (*Figure, error) {
	if cores <= 0 {
		cores = 4
	}
	f := &Figure{
		ID:    "fig10",
		Title: fmt.Sprintf("Sliced speedup: 1 core vs %d cores", cores),
		Table: stats.NewTable("bench", "1-core", fmt.Sprintf("%d-core", cores)),
	}
	var reqs batch
	for _, b := range Benchmarks {
		sc := scaled(b, scaleDelta) + sizeDelta
		reqs.add("base1/"+b, Options{Benchmark: b, Scale: scaled(b, scaleDelta)})
		reqs.add("sl1/"+b, Options{Benchmark: b, Scale: scaled(b, scaleDelta), Mode: BestMode(b)})
		reqs.add("baseN/"+b, Options{Benchmark: b, Scale: sc, Cores: cores})
		reqs.add("slN/"+b, Options{Benchmark: b, Scale: sc, Cores: cores, Mode: BestMode(b)})
	}
	if err := reqs.run(r); err != nil {
		return nil, err
	}
	var single, multi []float64
	for _, b := range Benchmarks {
		s1 := Speedup(reqs.get("base1/"+b), reqs.get("sl1/"+b))
		sN := Speedup(reqs.get("baseN/"+b), reqs.get("slN/"+b))
		f.Table.AddRow(b, s1, sN)
		f.set("1c/"+b, s1)
		f.set("nc/"+b, sN)
		single = append(single, s1)
		multi = append(multi, sN)
	}
	f.Table.AddRow("hmean", stats.HarmonicMeanSpeedup(single), stats.HarmonicMeanSpeedup(multi))
	f.set("hmean/1c", stats.HarmonicMeanSpeedup(single))
	f.set("hmean/nc", stats.HarmonicMeanSpeedup(multi))
	f.Notes = "paper: 28-core average 1.29 — the benefit is orthogonal to thread parallelism"
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// fig11Configs are the per-benchmark run variants of Fig. 11, in column
// order. Modes marked best are resolved per benchmark.
var fig11Configs = []struct {
	key  string
	smt  int
	best bool
	pred string
}{
	{"smt2", 2, false, ""},
	{"smt2s", 2, true, ""},
	{"smt4", 4, false, ""},
	{"smt4s", 4, true, ""},
	{"sliced", 1, true, ""},
	{"perfect", 1, false, "oracle"},
}

// Fig11 combines SMT (2 and 4 threads) with slicing on a single core.
func (r *Runner) Fig11(scaleDelta int) (*Figure, error) {
	f := &Figure{
		ID:    "fig11",
		Title: "SMT and slicing combinations (single core), speedup vs 1-thread baseline",
		Table: stats.NewTable("bench", "smt2", "smt2+sliced", "smt4", "smt4+sliced", "sliced", "perfect"),
	}
	var reqs batch
	for _, b := range Benchmarks {
		sc := scaled(b, scaleDelta)
		reqs.add("base/"+b, Options{Benchmark: b, Scale: sc})
		for _, cfg := range fig11Configs {
			mode := SliceNone
			if cfg.best {
				mode = BestMode(b)
			}
			reqs.add(cfg.key+"/"+b, Options{Benchmark: b, Scale: sc,
				SMT: cfg.smt, Mode: mode, Predictor: cfg.pred})
		}
	}
	if err := reqs.run(r); err != nil {
		return nil, err
	}
	for _, b := range Benchmarks {
		base := reqs.get("base/" + b)
		row := []any{b}
		for _, cfg := range fig11Configs {
			sp := Speedup(base, reqs.get(cfg.key+"/"+b))
			row = append(row, sp)
			f.set(fmt.Sprintf("%s/%s", b, cfg.key), sp)
		}
		f.Table.AddRow(row...)
	}
	f.Notes = "paper: SMT alone beats slicing alone, but slicing adds on top of SMT"
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// policyMatrixConfigs are the per-benchmark variants of the policy
// figure, in column order. Selective resolves BestMode per benchmark.
var policyMatrixConfigs = []struct {
	key    string
	policy string
	best   bool
}{
	{"selective", "selective", true},
	{"partial16", "partial:16", false},
	{"throttle2", "throttle:2", false},
}

// PolicyMatrix compares the recovery-policy matrix (§4.2 and the
// conventional-recovery alternatives it displaces) on every benchmark:
// baseline IPC under conventional full-squash recovery, then speedups for
// the paper's selective flush (at BestMode), a partial flush that releases
// the 16 victims nearest the branch at resolution and drains the rest, and
// a conventional squash with fetch throttled below TAGE confidence 2. This
// is not a paper figure — it is the repo's own ablation of what the
// selective mechanism buys over cheaper recovery tweaks.
func (r *Runner) PolicyMatrix(scaleDelta int) (*Figure, error) {
	f := &Figure{
		ID:    "policy",
		Title: "Recovery-policy matrix: speedup vs conventional full squash",
		Table: stats.NewTable("bench", "baseIPC", "selective", "partial:16", "throttle:2"),
	}
	var reqs batch
	for _, b := range Benchmarks {
		sc := scaled(b, scaleDelta)
		reqs.add("base/"+b, Options{Benchmark: b, Scale: sc})
		for _, cfg := range policyMatrixConfigs {
			mode := SliceNone
			if cfg.best {
				mode = BestMode(b)
			}
			reqs.add(cfg.key+"/"+b, Options{Benchmark: b, Scale: sc,
				Mode: mode, Policy: cfg.policy})
		}
	}
	if err := reqs.run(r); err != nil {
		return nil, err
	}
	sums := map[string][]float64{}
	for _, b := range Benchmarks {
		base := reqs.get("base/" + b)
		row := []any{b, base.IPC}
		f.set("baseIPC/"+b, base.IPC)
		for _, cfg := range policyMatrixConfigs {
			sp := Speedup(base, reqs.get(cfg.key+"/"+b))
			row = append(row, sp)
			f.set(fmt.Sprintf("%s/%s", b, cfg.key), sp)
			sums[cfg.key] = append(sums[cfg.key], sp)
		}
		f.Table.AddRow(row...)
	}
	hrow := []any{"hmean", ""}
	for _, cfg := range policyMatrixConfigs {
		hm := stats.HarmonicMeanSpeedup(sums[cfg.key])
		hrow = append(hrow, hm)
		f.set("hmean/"+cfg.key, hm)
	}
	f.Table.AddRow(hrow...)
	f.Notes = "partial/throttle commit the same instructions as the baseline; only selective changes the fetch stream"
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// FigureParams are the inputs of a figure requested by id: every figure
// takes the input-scale Delta; only Fig. 10 reads Cores and SizeDelta.
type FigureParams struct {
	Delta, Cores, SizeDelta int
}

// DefaultFigureParams are the defaults both front ends start from:
// full scale, and Fig. 10 at 16 cores with three extra input-scale
// steps for its multicore runs.
func DefaultFigureParams() FigureParams { return FigureParams{Cores: 16, SizeDelta: 3} }

// figureSpec is one row of the figure table: the id, a second accepted
// name, and how to regenerate the figure.
type figureSpec struct {
	id, alias string
	run       func(r *Runner, p FigureParams) (*Figure, error)
}

// figures is the one table of figure ids, shared by `experiments -fig`
// and serve's /v1/figures/{id}, in the order `-fig all` prints them.
var figures = []figureSpec{
	{"table1", "1", func(*Runner, FigureParams) (*Figure, error) { return Table1(), nil }},
	{"motivation", "3", func(r *Runner, p FigureParams) (*Figure, error) { return r.Motivation(p.Delta) }},
	{"4", "", func(r *Runner, p FigureParams) (*Figure, error) { return r.Fig4(p.Delta) }},
	{"5", "", func(r *Runner, p FigureParams) (*Figure, error) { return r.Fig5(p.Delta) }},
	{"6", "", func(r *Runner, p FigureParams) (*Figure, error) { return r.Fig6(p.Delta) }},
	{"7", "", func(r *Runner, p FigureParams) (*Figure, error) { return r.Fig7(p.Delta, nil) }},
	{"8", "", func(r *Runner, p FigureParams) (*Figure, error) { return r.Fig8(p.Delta, nil) }},
	{"9", "", func(r *Runner, p FigureParams) (*Figure, error) { return r.Fig9(p.Delta) }},
	{"10", "", func(r *Runner, p FigureParams) (*Figure, error) { return r.Fig10(p.Delta, p.Cores, p.SizeDelta) }},
	{"11", "", func(r *Runner, p FigureParams) (*Figure, error) { return r.Fig11(p.Delta) }},
	{"policy", "", func(r *Runner, p FigureParams) (*Figure, error) { return r.PolicyMatrix(p.Delta) }},
}

// lookupFigure finds the row a figure name resolves to: an id, an alias
// ("1" for table1, "3" for motivation), or either behind a "fig" prefix
// ("fig4").
func lookupFigure(name string) (figureSpec, bool) {
	name = strings.TrimPrefix(name, "fig")
	for _, f := range figures {
		if name == f.id || (f.alias != "" && name == f.alias) {
			return f, true
		}
	}
	return figureSpec{}, false
}

// FigureIDs returns every figure id in the order `experiments -fig all`
// prints them.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// FigureID resolves a figure name — an id, an alias such as "1" or
// "fig4" — to its id; ok is false for an unknown name.
func FigureID(name string) (id string, ok bool) {
	f, ok := lookupFigure(name)
	return f.id, ok
}

// Figure regenerates the figure with the given name (see FigureID)
// through the Runner.
func (r *Runner) Figure(name string, p FigureParams) (*Figure, error) {
	f, ok := lookupFigure(name)
	if !ok {
		return nil, fmt.Errorf("blp: unknown figure %q (%s)", name, strings.Join(FigureIDs(), ", "))
	}
	return f.run(r, p)
}
