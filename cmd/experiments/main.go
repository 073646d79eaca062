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
//	experiments -fig 10 -cores 32 # nearest power of two above the paper's 28 cores
//	experiments -jobs 1 -quiet  # serial, no progress
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	blp "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	def := blp.DefaultFigureParams()
	fig := flag.String("fig", "all", "which experiment: table1, motivation, 4..11, policy, or all")
	delta := flag.Int("delta", def.Delta, "input-scale delta (negative = smaller/faster)")
	cores := flag.Int("cores", def.Cores, "core count for fig10 (a power of two)")
	sizeDelta := flag.Int("sizedelta", def.SizeDelta, "extra input-scale steps for fig10's multicore runs")
	jobs := flag.Int("jobs", runtime.NumCPU(), "max concurrent simulations (shared across figures)")
	quiet := flag.Bool("quiet", false, "suppress the per-run progress line on stderr")
	asJSON := flag.Bool("json", false, "emit the machine-readable metrics report (JSON) on stdout instead of text tables")
	metrics := flag.String("metrics", "", "also write the metrics report (JSON) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after all runs) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
		}()
	}

	r := blp.NewRunner(*jobs)
	if !*quiet {
		r.SetProgress(os.Stderr)
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*fig, ",") {
		if id, ok := blp.FigureID(strings.TrimSpace(name)); ok {
			want[id] = true
		}
	}
	var sel []string
	for _, id := range blp.FigureIDs() {
		if *fig == "all" || want[id] {
			sel = append(sel, id)
		}
	}
	if len(sel) == 0 {
		log.Fatalf("no experiment matches -fig %q", *fig)
	}
	params := blp.FigureParams{Delta: *delta, Cores: *cores, SizeDelta: *sizeDelta}

	// Launch every selected figure concurrently — the shared Runner
	// bounds total simulation concurrency and deduplicates the runs
	// figures have in common — and print each in selection order as soon
	// as it (and everything before it) is ready.
	start := time.Now()
	type outcome struct {
		f    *blp.Figure
		err  error
		dur  time.Duration
		done chan struct{}
	}
	outs := make([]*outcome, len(sel))
	for i := range sel {
		outs[i] = &outcome{done: make(chan struct{})}
		go func(i int) {
			defer close(outs[i].done)
			figStart := time.Now()
			outs[i].f, outs[i].err = r.Figure(sel[i], params)
			outs[i].dur = time.Since(figStart)
		}(i)
	}
	figs := make([]*blp.Figure, len(sel))
	for i, id := range sel {
		<-outs[i].done
		if outs[i].err != nil {
			log.Fatalf("fig %s: %v", id, outs[i].err)
		}
		figs[i] = outs[i].f
		if !*asJSON {
			fmt.Println(outs[i].f)
			fmt.Printf("(generated in %v)\n\n", outs[i].dur.Round(time.Second))
		}
	}
	report := blp.NewReport(figs...)
	if *asJSON {
		if err := report.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if len(sel) > 1 {
		printSummary(os.Stderr, r, time.Since(start))
	}
}

// printSummary reports how much work the shared run cache saved.
func printSummary(w io.Writer, r *blp.Runner, elapsed time.Duration) {
	s := r.Stats()
	fmt.Fprintf(w, "experiments: %d simulations (%d duplicate requests served from cache) in %v with %d workers\n",
		s.Simulated, s.Cached, elapsed.Round(time.Millisecond), r.Jobs())
}
