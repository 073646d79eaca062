package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts by tens of percent over minutes (other tenants,
// frequency), which no amount of averaging inside one run removes. So
// runs also time a reference loop owned by the benchmark — integer
// arithmetic plus dependent loads over a cache-sized and a memory-sized
// array, allocation-free and independent of the code under test — on
// every CPU, interleaved with their load, and scale their time metrics
// by how slow the loop ran relative to calNominal. The raw values stay
// in the report.

// calNominal is the reference loop's median time on the measurement host
// (2 vCPUs; see testdata/BENCH_6.json). Scaled metrics read as if every
// run had that host at that speed.
const calNominal = 0.11 // seconds

const (
	calALUSteps   = 4_000_000
	calChaseSteps = 400_000
	calLLCWords   = 1 << 20 // 4 MiB of uint32
	calDRAMWords  = 1 << 22 // 16 MiB of uint32
)

// calChains are the loop's arrays, mapped outside the Go heap so they do
// not move the measured code's garbage-collection pacing.
var calChains = sync.OnceValues(func() ([2][]uint32, error) {
	var out [2][]uint32
	for i, n := range []int{calLLCWords, calDRAMWords} {
		c, err := chain(n)
		if err != nil {
			return out, err
		}
		out[i] = c
	}
	return out, nil
})

// chain returns a random single-cycle permutation (Sattolo's algorithm):
// following it visits every word once, in an order no prefetcher
// predicts.
func chain(n int) ([]uint32, error) {
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration array: %w", err)
	}
	c := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
	r := rand.New(rand.NewPCG(1, 2))
	for i := range c {
		c[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i)
		c[i], c[j] = c[j], c[i]
	}
	return c, nil
}

// calSink keeps the loops' results live.
var calSink uint64

// calibrate times one round of the reference loop on every CPU at once.
func calibrate() (float64, error) {
	chains, err := calChains()
	if err != nil {
		return 0, err
	}
	sec := onEveryCPU(func(g int) uint64 {
		x := uint64(g + 1)
		for i := 0; i < calALUSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			if x>>62 == 1 {
				x ^= x >> 29
			}
		}
		return x
	})
	for _, ch := range chains {
		sec += onEveryCPU(func(g int) uint64 {
			p := uint32(g * 7919)
			for j := 0; j < calChaseSteps; j++ {
				p = ch[p]
			}
			return uint64(p)
		})
	}
	return sec, nil
}

// onEveryCPU runs fn once per CPU concurrently and returns the seconds
// until the last one finished.
func onEveryCPU(fn func(g int) uint64) float64 {
	out := make([]uint64, runtime.NumCPU())
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[g] = fn(g)
		}()
	}
	wg.Wait()
	sec := time.Since(t0).Seconds()
	for _, x := range out {
		calSink += x
	}
	return sec
}
