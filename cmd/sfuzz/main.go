// Command sfuzz is the differential fuzzer for the selective-flush
// pipeline: it generates random slice-annotated programs plus random
// hardware configurations, runs each through the architectural emulator
// and three timing-simulator variants (selective flush event-driven,
// selective flush cycle-accurate, conventional full flush), and
// cross-checks final memory, committed-instruction counts, resource
// quiescence, and event-driven/cycle-accurate equivalence. A metamorphic
// leg reruns each sample with the oracle predictor under three recovery
// policies, which must agree byte for byte. Failures are greedily
// minimized and written as replayable JSON repro files.
//
// Usage:
//
//	go run ./cmd/sfuzz -n 500 -seed 1
//	go run ./cmd/sfuzz -n 200 -storm -out failures/
//	go run ./cmd/sfuzz -n 500 -policy
//	go run ./cmd/sfuzz -replay internal/fuzz/testdata/scenario-fence.json
//
// With -policy, every sample additionally draws a recovery policy
// (conventional, partial:N, throttle:C) and runs the policy-equivalence
// leg of the oracle against the same reference execution.
//
// Exit status is nonzero if any sample violated an oracle.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fuzz"
)

func main() {
	var (
		n        = flag.Int("n", 200, "number of samples to run")
		seed     = flag.Uint64("seed", 1, "base seed (sample i uses seed+i)")
		storm    = flag.Bool("storm", false, "storm mode: tiny windows, slice/fence-dense programs")
		policy   = flag.Bool("policy", false, "force a recovery policy on every sample (policy-equivalence leg)")
		out      = flag.String("out", "sfuzz-failures", "directory for minimized repro files")
		minimize = flag.Int("minimize", 400, "minimizer budget in oracle runs (0 disables)")
		maxFail  = flag.Int("max-failures", 5, "stop after this many failing samples")
		verbose  = flag.Bool("v", false, "report progress every 50 samples")
		replay   = flag.String("replay", "", "replay one repro file instead of fuzzing")
	)
	flag.Parse()

	if *replay != "" {
		c, err := fuzz.ReadCaseFile(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfuzz: %v\n", err)
			os.Exit(2)
		}
		if v := fuzz.RunCase(c); v != nil {
			fmt.Printf("sfuzz: %s FAILS: %s\n%s\n", c.Name, v.Kind, v.Detail)
			os.Exit(1)
		}
		fmt.Printf("sfuzz: %s ok\n", c.Name)
		return
	}

	failures := 0
	for i := 0; i < *n; i++ {
		s := fuzz.NewShape(*seed+uint64(i), *storm)
		if *policy {
			s.ForcePolicy()
		}
		v := fuzz.RunCase(fuzz.Render(s))
		if *verbose && (i+1)%50 == 0 {
			fmt.Printf("sfuzz: %d/%d samples, %d failure(s)\n", i+1, *n, failures)
		}
		if v == nil {
			continue
		}
		failures++
		fmt.Printf("sfuzz: seed %#x VIOLATION %s\n  %s\n", s.Seed, v.Kind, v.Detail)
		if *minimize > 0 {
			ms, mv := fuzz.Minimize(s, v, *minimize)
			s, v = ms, mv
			fmt.Printf("  minimized to %d segment(s), %d outer iteration(s): %s\n",
				liveSegs(s), s.OuterIters, v.Detail)
		}
		if err := writeRepro(*out, s); err != nil {
			fmt.Fprintf(os.Stderr, "sfuzz: writing repro: %v\n", err)
		}
		if failures >= *maxFail {
			fmt.Printf("sfuzz: stopping after %d failures\n", failures)
			break
		}
	}
	if failures > 0 {
		fmt.Printf("sfuzz: %d violating sample(s)\n", failures)
		os.Exit(1)
	}
	fmt.Printf("sfuzz: %d samples clean\n", *n)
}

func liveSegs(s *fuzz.Shape) int {
	n := 0
	for _, seg := range s.Segs {
		if !seg.Off {
			n++
		}
	}
	return n
}

// writeRepro renders the (minimized) shape and stores the concrete case —
// programs, memory image, configuration — so the repro replays identically
// even after the generator changes.
func writeRepro(dir string, s *fuzz.Shape) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c := fuzz.Render(s)
	path := filepath.Join(dir, fmt.Sprintf("repro-%#x.json", s.Seed))
	if err := c.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("  repro written to %s (replay: go run ./cmd/sfuzz -replay %s)\n", path, path)
	return nil
}
