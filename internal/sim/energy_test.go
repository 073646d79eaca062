package sim

import "testing"

func TestEnergyComponents(t *testing.T) {
	res := runOddEven(t, false, nil)
	e := EstimateEnergy(res)
	if e.Total() <= 0 || e.Frontend <= 0 || e.DRAM < 0 {
		t.Fatalf("degenerate energy: %+v", e)
	}
	sum := e.Frontend + e.Execute + e.Commit + e.Caches + e.DRAM + e.Static
	if sum != e.Total() {
		t.Fatal("total != component sum")
	}
}

// TestEnergySlicedReducesWaste reproduces the paper's §6.1 efficiency
// argument on the canonical loop: slicing cuts wrong-path dispatches, so
// the useful (committed/dispatched) fraction of dynamic energy rises.
func TestEnergySlicedReducesWaste(t *testing.T) {
	base := runOddEven(t, false, nil)
	sl := runOddEven(t, true, nil)
	useful := func(r *Result) float64 {
		s := r.Total
		return float64(s.Committed) / float64(s.DispCorrect+s.DispWrong+s.DispOverhead)
	}
	eb := EstimateEnergy(base)
	es := EstimateEnergy(sl)
	if useful(sl) <= useful(base) {
		t.Fatalf("useful-energy fraction did not improve: %.3f vs %.3f",
			useful(sl), useful(base))
	}
	// With the big wrong-path reduction, total frontend energy drops.
	if es.Frontend >= eb.Frontend {
		t.Fatalf("frontend energy did not drop: %.0f vs %.0f", es.Frontend, eb.Frontend)
	}
}
