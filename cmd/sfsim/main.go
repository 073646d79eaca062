// Command sfsim runs one benchmark through the selective-flush simulator
// and prints its statistics.
//
// Usage:
//
//	sfsim -bench bfs -mode outer
//	sfsim -bench cc -mode inner -scale 11 -predictor oracle
//	sfsim -bench ms -cores 4 -compare
//	sfsim -bench bfs -mode outer -trace trace.json   # Chrome trace export
//	sfsim -bench bfs -timeline tl.csv -interval 500  # occupancy timeline
//	sfsim -bench bfs -mode outer -traceevents 20     # last 20 events to stderr
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	blp "repro"
	"repro/internal/kernels"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sfsim: ")

	bench := flag.String("bench", "bfs", "benchmark: "+strings.Join(blp.Benchmarks, ", "))
	mode := flag.String("mode", "none", "slice placement: none, outer, inner")
	scale := flag.Int("scale", 0, "input scale (log2 vertices; 0 = default)")
	degree := flag.Int("degree", 0, "RMAT average degree (0 = 16)")
	seed := flag.Uint64("seed", 0, "input seed (0 = 1)")
	cores := flag.Int("cores", 1, "number of cores")
	smt := flag.Int("smt", 1, "SMT threads per core (1, 2, 4)")
	predictor := flag.String("predictor", "", "branch predictor: tage (default), gshare, bimodal, static, oracle")
	reserve := flag.Int("reserve", 0, "reserved entries for resolve paths (0 = default 8, -1 = explicitly none)")
	block := flag.Int("robblock", 0, "ROB block size (0 = 1, pure linked list)")
	frq := flag.Int("frq", 0, "fetch redirect queue depth (0 = default 8, -1 = explicitly none)")
	priters := flag.Int("priters", 0, "pagerank sweeps (0 = default 3, -1 = explicitly none)")
	paperMem := flag.Bool("papermem", false, "use the full Table 1 memory hierarchy")
	check := flag.Bool("checkslices", false, "enable the slice independence checker")
	compare := flag.Bool("compare", false, "also run the baseline and report the speedup")
	events := flag.Int("traceevents", 0, "print the last N recorded pipeline events (uop lifetimes and selective-flush events, each naming its core and thread) to stderr")
	tracePath := flag.String("trace", "", "write a per-uop pipeline trace (Chrome trace_event JSON) to this file")
	timelinePath := flag.String("timeline", "", "write the interval occupancy/IPC/MPKI timeline (CSV) to this file")
	interval := flag.Int64("interval", 1000, "timeline sampling interval in cycles")
	watchdog := flag.Int64("watchdog", 0, "deadlock watchdog threshold in no-commit cycles (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
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
		defer writeFile(*memprofile, func(w io.Writer) error {
			runtime.GC() // settle live-heap numbers before the snapshot
			return pprof.Lookup("allocs").WriteTo(w, 0)
		})
	}

	m, err := kernels.ParseSliceMode(*mode)
	if err != nil {
		log.Fatal(err)
	}

	opts := blp.Options{
		Benchmark: *bench, Mode: m, Scale: *scale, Degree: *degree,
		Seed: *seed, Cores: *cores, SMT: *smt, Predictor: *predictor,
		Reserve: *reserve, ROBBlockSize: *block, FRQSize: *frq,
		PRIters: *priters, PaperScaleMem: *paperMem,
		CheckIndependence: *check, WatchdogCycles: *watchdog,
	}

	// Attach a flight recorder when any export was requested.
	var rec *blp.FlightRecorder
	if *tracePath != "" || *timelinePath != "" || *events > 0 {
		rec = &blp.FlightRecorder{TraceUops: *tracePath != "" || *events > 0}
		if *timelinePath != "" {
			rec.Interval = *interval
		}
		if *tracePath == "" {
			// Without a trace file the ring need hold only what is printed.
			rec.MaxEvents = *events
		}
	}
	if *timelinePath == "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "interval" {
				log.Print("warning: -interval has no effect without -timeline")
			}
		})
	}

	// -compare runs the baseline concurrently and unrecorded, so only the
	// measured run's events are printed and exported.
	var wg sync.WaitGroup
	var base *blp.Result
	var baseErr error
	if *compare && m != blp.SliceNone {
		b := opts
		b.Mode = blp.SliceNone
		wg.Add(1)
		go func() {
			defer wg.Done()
			base, baseErr = blp.Run(b)
		}()
	}
	res, err := blp.RunRecorded(context.Background(), opts, rec)
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}
	if baseErr != nil {
		log.Fatal(baseErr)
	}
	printResult(opts, res)
	if base != nil {
		fmt.Printf("\nbaseline cycles: %d\nspeedup:         %.3f\n",
			base.Cycles, blp.Speedup(base, res))
	}
	writeRecordings(rec, *events, *tracePath, *timelinePath)
}

// writeRecordings prints the last n recorded events to stderr and exports
// the recorder's contents to the requested files.
func writeRecordings(rec *blp.FlightRecorder, n int, tracePath, timelinePath string) {
	if rec == nil {
		return
	}
	if n > 0 {
		evs := rec.Events()
		for _, e := range evs[max(0, len(evs)-n):] {
			fmt.Fprintln(os.Stderr, e)
		}
	}
	if tracePath != "" {
		writeFile(tracePath, rec.WriteChromeTrace)
		fmt.Fprintf(os.Stderr, "sfsim: wrote %d pipeline events to %s (%d dropped)\n",
			len(rec.Events()), tracePath, rec.Dropped())
	}
	if timelinePath != "" {
		writeFile(timelinePath, rec.WriteTimelineCSV)
		fmt.Fprintf(os.Stderr, "sfsim: wrote %d timeline samples to %s\n",
			len(rec.Samples()), timelinePath)
	}
}

func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

func printResult(o blp.Options, r *blp.Result) {
	s := r.Stats
	fmt.Fprintf(os.Stdout, "benchmark:    %s (mode=%v, scale=%d)\n", o.Benchmark, o.Mode, effScale(o))
	fmt.Printf("cycles:       %d\n", r.Cycles)
	fmt.Printf("instructions: %d (IPC %.3f)\n", s.Committed, r.IPC)
	fmt.Printf("branches:     %d, mispredicted %d (%.2f%%, %.1f MPKI)\n",
		s.Branches, s.Mispredicts, 100*s.MispredictRate(), s.MPKI())
	fmt.Printf("dispatched:   correct=%d wrongPath=%d sliceOverhead=%d\n",
		s.DispCorrect, s.DispWrong, s.DispOverhead)
	fmt.Printf("recoveries:   selective=%d conventional=%d nested=%d (FRQ peak %d)\n",
		s.SliceRecoveries, s.ConvRecoveries, s.NestedMisses, s.FRQPeak)
	fmt.Printf("flushed:      selective=%d full=%d robGaps=%d\n",
		s.FlushedSelective, s.FlushedFull, s.GapsCreated)
	tot := s.StackTotal()
	fmt.Printf("cycle stack:  exec %.1f%%  branch %.1f%%  mem %.1f%%  other %.1f%%\n",
		100*s.StackExec/tot, 100*s.StackBranch/tot, 100*s.StackMem/tot, 100*s.StackOther/tot)
	fmt.Printf("memory:       LLC miss %.1f%%, DRAM busy %.1f%%\n",
		100*r.LLCMissRate, 100*r.DRAMBusy)
	fmt.Printf("energy proxy: %.3g units, %.1f%% on committed work\n",
		r.Energy.Total(), 100*r.EnergyUseful)
}

func effScale(o blp.Options) int {
	if o.Scale != 0 {
		return o.Scale
	}
	return blp.DefaultScale(o.Benchmark)
}
