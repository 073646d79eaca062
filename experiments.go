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

// grid runs a figure's cells: opt(b, c) for every benchmark b and column
// c below cols, where a zero Options skips the cell. Each distinct
// Options runs once and all of them run concurrently through one RunAll,
// so the figure is assembled afterwards, serially and in deterministic
// order, from the results by benchmark and column (nil in a skipped
// cell).
func (r *Runner) grid(cols int, opt func(b string, c int) Options) (map[string][]*Result, error) {
	var opts []Options
	at := map[Options]int{}
	for _, b := range Benchmarks {
		for c := range cols {
			o := opt(b, c)
			if _, dup := at[o]; !dup && o != (Options{}) {
				at[o] = len(opts)
				opts = append(opts, o)
			}
		}
	}
	results, err := r.RunAll(opts)
	if err != nil {
		return nil, err
	}
	res := map[string][]*Result{}
	for _, b := range Benchmarks {
		res[b] = make([]*Result, cols)
		for c := range cols {
			if i, ok := at[opt(b, c)]; ok {
				res[b][c] = results[i]
			}
		}
	}
	return res, nil
}

// pairRun is benchmark b's run at scale in grid column c of a figure
// that pairs its runs: unsliced in an even column, at BestMode in the
// odd column after it.
func pairRun(b string, scale, c int) Options {
	o := Options{Benchmark: b, Scale: scale}
	if c%2 == 1 {
		o.Mode = BestMode(b)
	}
	return o
}

// speedupCol is one column of a speedup table: the speedup of grid
// column run over grid column base, set in Values under key with the
// benchmark for its %s, and the column's harmonic mean under hmean
// unless that is empty. An ipc column holds run's IPC instead, and is
// blank in the hmean row.
type speedupCol struct {
	head, key, hmean string
	base, run        int
	ipc              bool
}

// speedupRows fills f's table from a grid of runs: the columns' heads, a
// row per benchmark and, when hmean is set, a closing row of each
// column's harmonic mean.
func (f *Figure) speedupRows(res map[string][]*Result, cols []speedupCol, hmean bool) {
	header := []string{"bench"}
	for _, c := range cols {
		header = append(header, c.head)
	}
	f.Table = stats.NewTable(header...)
	perCol := make([][]float64, len(cols))
	for _, b := range Benchmarks {
		row := []any{b}
		for i, c := range cols {
			v := Speedup(res[b][c.base], res[b][c.run])
			if c.ipc {
				v = res[b][c.run].IPC
			}
			row = append(row, v)
			f.set(fmt.Sprintf(c.key, b), v)
			perCol[i] = append(perCol[i], v)
		}
		f.Table.AddRow(row...)
	}
	if !hmean {
		return
	}
	row := []any{"hmean"}
	for i, c := range cols {
		if c.ipc {
			row = append(row, "")
			continue
		}
		hm := stats.HarmonicMeanSpeedup(perCol[i])
		row = append(row, hm)
		if c.hmean != "" {
			f.set(c.hmean, hm)
		}
	}
	f.Table.AddRow(row...)
}

// variant is one column of a figure that compares each benchmark's runs
// with its unsliced baseline: the baseline's Options changed by edit and,
// when best, sliced at BestMode. head labels the column; its Values are
// <bench>/<key> and hmean/<key>.
type variant struct {
	head, key string
	best      bool
	edit      func(*Options)
}

// variants runs every benchmark's baseline and each of vs, and fills f
// with the lead columns, then the variants' speedups, closing with an
// hmean row when hmean is set.
func (r *Runner) variants(f *Figure, scaleDelta int, vs []variant, hmean bool, lead ...speedupCol) (*Figure, error) {
	res, err := r.grid(1+len(vs), func(b string, c int) Options {
		o := Options{Benchmark: b, Scale: scaled(b, scaleDelta)}
		if c > 0 {
			if vs[c-1].best {
				o.Mode = BestMode(b)
			}
			vs[c-1].edit(&o)
		}
		return o
	})
	if err != nil {
		return nil, err
	}
	cols := lead
	for i, v := range vs {
		cols = append(cols, speedupCol{head: v.head, key: "%s/" + v.key, hmean: "hmean/" + v.key, run: i + 1})
	}
	f.speedupRows(res, cols, hmean)
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// Motivation reproduces the §3 baseline statistics: wrong-path dispatch
// overhead and the oracle-predictor speedup for every benchmark.
func (r *Runner) Motivation(scaleDelta int) (*Figure, error) {
	f := &Figure{
		ID:    "motivation",
		Title: "§3 baseline branch statistics (TAGE vs oracle)",
		Table: stats.NewTable("bench", "MPKI", "wrongPath/correct", "oracle speedup"),
		Notes: "paper: +53% wrong-path dispatches, oracle +60% (§3)",
	}
	res, err := r.grid(2, func(b string, c int) Options {
		o := Options{Benchmark: b, Scale: scaled(b, scaleDelta)}
		if c == 1 {
			o.Predictor = "oracle"
		}
		return o
	})
	if err != nil {
		return nil, err
	}
	var wpSum, orSum []float64
	for _, b := range Benchmarks {
		base, orc := res[b][0], res[b][1]
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
	// Columns: baseline, inner (where allowed), outer, perfect.
	res, err := r.grid(4, func(b string, c int) Options {
		o := Options{Benchmark: b, Scale: scaled(b, scaleDelta)}
		switch c {
		case 1:
			if !InnerSliceable(b) {
				return Options{}
			}
			o.Mode = SliceInner
		case 2:
			o.Mode = SliceOuter
		case 3:
			o.Predictor = "oracle"
		}
		return o
	})
	if err != nil {
		return nil, err
	}
	var best, bestNoPR, perfect []float64
	for _, b := range Benchmarks {
		base := res[b][0]
		inner := "-"
		innerV := 0.0
		if res[b][1] != nil {
			innerV = Speedup(base, res[b][1])
			inner = fmt.Sprintf("%.3f", innerV)
			f.set("inner/"+b, innerV)
		}
		outerV := Speedup(base, res[b][2])
		orcV := Speedup(base, res[b][3])
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

// slicedRows runs every benchmark unsliced and at BestMode and hands
// row the pair in order, orig then sliced, each with the baseline run it
// is normalized to.
func (r *Runner) slicedRows(f *Figure, scaleDelta int, row func(b, name string, run, base *Result)) (*Figure, error) {
	res, err := r.grid(2, func(b string, c int) Options { return pairRun(b, scaled(b, scaleDelta), c) })
	if err != nil {
		return nil, err
	}
	for _, b := range Benchmarks {
		row(b, "orig", res[b][0], res[b][0])
		row(b, "sliced", res[b][1], res[b][0])
	}
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
		Notes: "paper: slicing shrinks the branch component; mem grows slightly",
	}
	return r.slicedRows(f, scaleDelta, func(b, name string, run, base *Result) {
		s, norm := run.Stats, float64(base.Cycles)
		f.Table.AddRow(b, name,
			s.StackExec/norm, s.StackBranch/norm, s.StackMem/norm,
			s.StackOther/norm, float64(run.Cycles)/norm)
		f.set(fmt.Sprintf("%s/%s/branch", b, name), s.StackBranch/norm)
		f.set(fmt.Sprintf("%s/%s/mem", b, name), s.StackMem/norm)
	})
}

// Fig6 reproduces the dispatched-instruction breakdown: correct path,
// wrong path, and slice-instruction overhead, normalized to the baseline
// correct-path count.
func (r *Runner) Fig6(scaleDelta int) (*Figure, error) {
	f := &Figure{
		ID:    "fig6",
		Title: "Dispatched instructions, normalized to correct-path count",
		Table: stats.NewTable("bench", "run", "correct", "wrongPath", "overhead"),
		Notes: "paper: slicing cuts wrong-path dispatches; sssp overhead exceeds the saving",
	}
	return r.slicedRows(f, scaleDelta, func(b, name string, run, base *Result) {
		s, norm := run.Stats, float64(base.Stats.DispCorrect)
		f.Table.AddRow(b, name, float64(s.DispCorrect)/norm,
			float64(s.DispWrong)/norm, float64(s.DispOverhead)/norm)
		f.set(fmt.Sprintf("%s/%s/wrong", b, name), float64(s.DispWrong)/norm)
		if name == "sliced" {
			f.set(b+"/overhead", float64(s.DispOverhead)/norm)
		}
	})
}

// sweep returns the variants of a sliced sweep over one Options field:
// BestMode with set(o, v) for each v of vals (def when vals is empty),
// headed <name>=<v> and keyed <name><v>. A value below 1 is an error:
// Options reads 0 as the default, so a 0 column would label the
// default's run with a value it did not run.
func sweep(fig, name string, vals, def []int, set func(o *Options, v int)) ([]variant, error) {
	if len(vals) == 0 {
		vals = def
	}
	vs := make([]variant, len(vals))
	for i, v := range vals {
		if v < 1 {
			return nil, fmt.Errorf("blp: %s sweep value %d is below 1", fig, v)
		}
		vs[i] = variant{fmt.Sprintf("%s=%d", name, v), fmt.Sprintf("%s%d", name, v), true,
			func(o *Options) { set(o, v) }}
	}
	return vs, nil
}

// Fig7 sweeps the §4.7 resource reservation (RS/LQ/SQ entries reserved
// for resolve paths).
func (r *Runner) Fig7(scaleDelta int, reserves []int) (*Figure, error) {
	vs, err := sweep("fig7", "r", reserves, []int{1, 2, 4, 8, 16, 32}, func(o *Options, v int) { o.Reserve = v })
	if err != nil {
		return nil, err
	}
	return r.variants(&Figure{
		ID:    "fig7",
		Title: "Sliced speedup vs entries reserved for resolve paths",
		Notes: "paper: flat (or improving, bc) to 16 reserved entries, drop at 32",
	}, scaleDelta, vs, false)
}

// Fig8 sweeps the blocked linked-list ROB block size.
func (r *Runner) Fig8(scaleDelta int, blocks []int) (*Figure, error) {
	vs, err := sweep("fig8", "b", blocks, []int{1, 2, 4, 8, 16}, func(o *Options, v int) { o.ROBBlockSize = v })
	if err != nil {
		return nil, err
	}
	return r.variants(&Figure{
		ID:    "fig8",
		Title: "Sliced speedup vs ROB block size (gaps/padding overhead)",
		Notes: "paper: ≤4 negligible, −4.1% at 8, −9.5% at 16",
	}, scaleDelta, vs, true)
}

// Fig9 sweeps input size (1×, 2×, 4×, 8× vertices).
func (r *Runner) Fig9(scaleDelta int) (*Figure, error) {
	f := &Figure{
		ID:    "fig9",
		Title: "Sliced speedup vs input size (×1, ×2, ×4, ×8)",
		Notes: "paper: no clear trend; average 1.27-1.31 across sizes",
	}
	// Columns 2d and 2d+1 run the 2^d-times input.
	res, err := r.grid(8, func(b string, c int) Options { return pairRun(b, scaled(b, scaleDelta)+c/2, c) })
	if err != nil {
		return nil, err
	}
	var cols []speedupCol
	for d := range 4 {
		cols = append(cols, speedupCol{head: fmt.Sprintf("x%d", 1<<d), key: fmt.Sprintf("%%s/x%d", 1<<d),
			base: 2 * d, run: 2*d + 1})
	}
	f.speedupRows(res, cols, true)
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// Fig10 compares multicore speedups against single-core speedups (the
// paper runs 28 cores with 16× inputs; pass cores and sizeDelta to scale
// the experiment to budget). cores must be at least 1.
func (r *Runner) Fig10(scaleDelta, cores, sizeDelta int) (*Figure, error) {
	if cores < 1 {
		return nil, fmt.Errorf("blp: fig10 needs at least 1 core, got %d", cores)
	}
	f := &Figure{
		ID:    "fig10",
		Title: fmt.Sprintf("Sliced speedup: 1 core vs %d cores", cores),
		Notes: "paper: 28-core average 1.29 — the benefit is orthogonal to thread parallelism",
	}
	// Columns 0 and 1 run one core, 2 and 3 the larger input on cores.
	res, err := r.grid(4, func(b string, c int) Options {
		o := pairRun(b, scaled(b, scaleDelta), c)
		if c >= 2 {
			o.Scale += sizeDelta
			o.Cores = cores
		}
		return o
	})
	if err != nil {
		return nil, err
	}
	f.speedupRows(res, []speedupCol{
		{head: "1-core", key: "1c/%s", hmean: "hmean/1c", base: 0, run: 1},
		{head: fmt.Sprintf("%d-core", cores), key: "nc/%s", hmean: "hmean/nc", base: 2, run: 3},
	}, true)
	f.addNote(scaleNote(scaleDelta))
	return f, nil
}

// Fig11 combines SMT (2 and 4 threads) with slicing on a single core.
func (r *Runner) Fig11(scaleDelta int) (*Figure, error) {
	return r.variants(&Figure{
		ID:    "fig11",
		Title: "SMT and slicing combinations (single core), speedup vs 1-thread baseline",
		Notes: "paper: SMT alone beats slicing alone, but slicing adds on top of SMT",
	}, scaleDelta, []variant{
		{"smt2", "smt2", false, func(o *Options) { o.SMT = 2 }},
		{"smt2+sliced", "smt2s", true, func(o *Options) { o.SMT = 2 }},
		{"smt4", "smt4", false, func(o *Options) { o.SMT = 4 }},
		{"smt4+sliced", "smt4s", true, func(o *Options) { o.SMT = 4 }},
		{"sliced", "sliced", true, func(*Options) {}},
		{"perfect", "perfect", false, func(o *Options) { o.Predictor = "oracle" }},
	}, false)
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
	return r.variants(&Figure{
		ID:    "policy",
		Title: "Recovery-policy matrix: speedup vs conventional full squash",
		Notes: "partial/throttle commit the same instructions as the baseline; only selective changes the fetch stream",
	}, scaleDelta, []variant{
		{"selective", "selective", true, func(o *Options) { o.Policy = "selective" }},
		{"partial:16", "partial16", false, func(o *Options) { o.Policy = "partial:16" }},
		{"throttle:2", "throttle2", false, func(o *Options) { o.Policy = "throttle:2" }},
	}, true, speedupCol{head: "baseIPC", key: "baseIPC/%s", ipc: true})
}

// FigureParams are the inputs of a figure requested by id: every figure
// takes the input-scale Delta; only Fig. 10 reads Cores and SizeDelta.
type FigureParams struct {
	Delta, Cores, SizeDelta int
}

// DefaultFigureParams are the defaults both front ends start from:
// full scale, and Fig. 10 at the paper's 28 cores with three extra
// input-scale steps for its multicore runs.
func DefaultFigureParams() FigureParams { return FigureParams{Cores: 28, SizeDelta: 3} }

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
