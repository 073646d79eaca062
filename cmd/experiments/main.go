// Command experiments regenerates the paper's tables and figures.
//
// Figures run through the parallel memoized harness (blp.Runner): all
// selected figures share one run cache, so the per-benchmark baselines
// that Motivation and Figs. 4-9 each re-measure simulate exactly once,
// and independent simulations execute concurrently up to -jobs workers.
// Tables are assembled in deterministic order, so the output is
// byte-identical to a serial (-jobs 1) run.
//
// Usage:
//
//	experiments                 # everything, default scales, NumCPU workers
//	experiments -fig 4          # one figure
//	experiments -fig 7 -delta -1  # quicker, one scale step smaller
//	experiments -fig 10 -cores 8  # fewer cores than the paper's 28
//	experiments -jobs 1 -quiet  # serial, no progress
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	blp "repro"
	"repro/internal/prof"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	def := blp.DefaultFigureParams()
	fig := flag.String("fig", "all", "which experiment: table1, motivation, 4..11, policy, or all")
	delta := flag.Int("delta", def.Delta, "input-scale delta (negative = smaller/faster)")
	cores := flag.Int("cores", def.Cores, "core count for fig10")
	sizeDelta := flag.Int("sizedelta", def.SizeDelta, "extra input-scale steps for fig10's multicore runs")
	jobs := flag.Int("jobs", runtime.NumCPU(), "max concurrent simulations (shared across figures)")
	quiet := flag.Bool("quiet", false, "suppress the per-run progress line on stderr")
	asJSON := flag.Bool("json", false, "emit the machine-readable metrics report (JSON) on stdout instead of text tables")
	metrics := flag.String("metrics", "", "also write the metrics report (JSON) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after all runs) to this file")
	flag.Parse()

	want := map[string]bool{}
	if *fig != "all" {
		for _, name := range strings.Split(*fig, ",") {
			id, ok := blp.FigureID(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("unknown figure %q in -fig %q (%s, or all alone)",
					strings.TrimSpace(name), *fig, strings.Join(blp.FigureIDs(), ", "))
			}
			want[id] = true
		}
	}
	var sel []string
	for _, id := range blp.FigureIDs() {
		if *fig == "all" || want[id] {
			sel = append(sel, id)
		}
	}
	params := blp.FigureParams{Delta: *delta, Cores: *cores, SizeDelta: *sizeDelta}

	r := blp.NewRunner(*jobs)
	if !*quiet {
		r.SetProgress(os.Stderr)
	}
	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	err = run(r, sel, params, *asJSON, *metrics)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run regenerates the selected figures and writes them: text tables or
// the JSON report on stdout, the report to metricsPath when set, and with
// more than one figure the Runner's summary on stderr.
//
// Every selected figure is launched concurrently — the shared Runner
// bounds total simulation concurrency and deduplicates the runs figures
// have in common — and printed in selection order as soon as it (and
// everything before it) is ready. The first figure to fail ends the run
// at once, whatever its place in the order.
func run(r *blp.Runner, sel []string, params blp.FigureParams, asJSON bool, metricsPath string) error {
	start := time.Now()
	type outcome struct {
		f    *blp.Figure
		dur  time.Duration
		done chan struct{}
	}
	outs := make([]*outcome, len(sel))
	failed := make(chan error, len(sel))
	for i := range sel {
		outs[i] = &outcome{done: make(chan struct{})}
		go func(i int) {
			figStart := time.Now()
			f, err := r.Figure(sel[i], params)
			if err != nil {
				failed <- fmt.Errorf("fig %s: %w", sel[i], err)
				return
			}
			outs[i].f, outs[i].dur = f, time.Since(figStart)
			close(outs[i].done)
		}(i)
	}
	figs := make([]*blp.Figure, len(sel))
	for i := range sel {
		select {
		case <-outs[i].done:
		case err := <-failed:
			return err
		}
		figs[i] = outs[i].f
		if !asJSON {
			fmt.Println(outs[i].f)
			fmt.Printf("(generated in %v)\n\n", outs[i].dur.Round(time.Second))
		}
	}
	report := blp.NewReport(figs...)
	if asJSON {
		if err := report.WriteJSON(os.Stdout); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if len(sel) > 1 {
		printSummary(os.Stderr, r, time.Since(start))
	}
	return nil
}

// printSummary reports how much work the shared run cache saved.
func printSummary(w io.Writer, r *blp.Runner, elapsed time.Duration) {
	s := r.Stats()
	fmt.Fprintf(w, "experiments: %d simulations (%d duplicate requests served from cache) in %v with %d workers\n",
		s.Simulated, s.Cached, elapsed.Round(time.Millisecond), r.Jobs())
}
