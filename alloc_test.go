package blp

import "testing"

// allocBudgetPerKinst bounds heap allocations per 1,000 committed
// instructions of one unsliced live run. A run that allocates per
// mispredict, per squash or per wrong-path record lands well above it;
// what remains is workload build and simulator set-up.
const allocBudgetPerKinst = 75

// TestAllocationBudget is the allocation guard for the simulator's steady
// state: every kernel's unsliced baseline, two scales below its default,
// must stay within allocBudgetPerKinst. Allocation counts do not depend
// on the host, so the bound is exact where wall-clock gates are not.
func TestAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates each kernel twice")
	}
	for _, k := range Benchmarks {
		o := Options{Benchmark: k, Scale: max(DefaultScale(k)-2, 6)}
		var res *Result
		var err error
		allocs := testing.AllocsPerRun(1, func() { res, err = Run(o) })
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		perKinst := allocs / (float64(res.Stats.Committed) / 1000)
		t.Logf("%s scale %d: %.0f allocs over %d committed = %.1f per kinst",
			k, o.Scale, allocs, res.Stats.Committed, perKinst)
		if perKinst > allocBudgetPerKinst {
			t.Errorf("%s: %.1f allocs per kinst, budget %d", k, perKinst, allocBudgetPerKinst)
		}
	}
}
