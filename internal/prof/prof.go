// Package prof runs the CPU and heap profiles behind the commands'
// -cpuprofile and -memprofile flags.
package prof

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts a CPU profile written to cpuPath and returns the function
// that finishes the profiles: it stops the CPU profile and writes a heap
// profile to memPath. An empty path skips its profile. A command calls
// stop on every way out after Start, a failed run included, so the
// profiles of a failed run are complete too.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeap(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeap writes the heap profile, settling the live-heap numbers with
// a GC first.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
