package blp

import (
	"runtime"
	"testing"
)

// Allocation budgets for one live run, per 1,000 committed instructions.
// A run that allocates per mispredict, per squash or per wrong-path record
// lands well above the count bounds; what remains is workload build and
// simulator set-up. Sliced runs allocate more objects because resolve
// fetch may run far ahead of dispatch, so the uop pool, with each pooled
// uop's wakeup list, grows larger before it stops growing. The byte bound
// catches what a count cannot see: a growing append is one object however
// many megabytes it copies.
const (
	allocBudgetPerKinst       = 75  // unsliced runs
	slicedAllocBudgetPerKinst = 200 // sliced (BestMode) runs
	bytesBudgetPerKinst       = 48 << 10
)

// TestAllocationBudget is the allocation guard for the simulator's steady
// state: every kernel two scales below its default, unsliced and in its
// best slice mode, must stay within the count bound for its mode and the
// byte bound. Allocations do not depend on the host, so the bounds are
// exact where wall-clock gates are not.
func TestAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates each kernel four times")
	}
	for _, k := range Benchmarks {
		for _, mode := range []SliceMode{SliceNone, BestMode(k)} {
			o := Options{Benchmark: k, Scale: max(DefaultScale(k)-2, 6), Mode: mode}
			res, allocs, bytes := measureAllocs(t, o)
			kinst := float64(res.Stats.Committed) / 1000
			perKinst, bytesPerKinst := float64(allocs)/kinst, float64(bytes)/kinst
			t.Logf("%s %v scale %d: %d allocs, %d bytes over %d committed = %.1f allocs, %.1f KiB per kinst",
				k, mode, o.Scale, allocs, bytes, res.Stats.Committed, perKinst, bytesPerKinst/1024)
			budget := allocBudgetPerKinst
			if mode != SliceNone {
				budget = slicedAllocBudgetPerKinst
			}
			if perKinst > float64(budget) {
				t.Errorf("%s %v: %.1f allocs per kinst, budget %d", k, mode, perKinst, budget)
			}
			if bytesPerKinst > bytesBudgetPerKinst {
				t.Errorf("%s %v: %.1f KiB per kinst, budget %d KiB",
					k, mode, bytesPerKinst/1024, bytesBudgetPerKinst>>10)
			}
		}
	}
}

// measureAllocs runs o once to warm up and once more on a single P, as
// testing.AllocsPerRun does, and returns the second run's result with the
// heap objects and bytes it allocated.
func measureAllocs(t *testing.T, o Options) (res *Result, allocs, bytes uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := Run(o); err != nil {
		t.Fatalf("%s %v: %v", o.Benchmark, o.Mode, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(o)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s %v: %v", o.Benchmark, o.Mode, err)
	}
	return res, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
