package blp

import (
	"reflect"
	"testing"
)

// TestRunnerDeterministic runs the inner-sliced bc and sssp Fig. 7
// reserve sweep on a fresh Runner three times over, and every Result must
// equal the unmemoized blp.Run of the same options. Concurrent runs share
// nothing but the Runner, and every wrong path re-seeds its thread's one
// shadow with an empty store log, so nothing one run leaves behind
// can change what another computes.
func TestRunnerDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 12 sweep points four times over")
	}
	reserves := []int{1, 2, 4, 8, 16, 32}
	var sweep []Options
	for _, b := range []string{"bc", "sssp"} {
		for _, rv := range reserves {
			sweep = append(sweep, Options{Benchmark: b, Scale: scaled(b, -2),
				Mode: BestMode(b), Reserve: rv})
		}
	}
	live := make([]*Result, len(sweep))
	for i, o := range sweep {
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		live[i] = res
	}
	for pass := 1; pass <= 3; pass++ {
		r := NewRunner(2)
		res, err := r.RunAll(sweep)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range sweep {
			if !reflect.DeepEqual(res[i], live[i]) {
				t.Errorf("pass %d: %s diverges from blp.Run:\nRun    %+v\nRunner %+v",
					pass, describeRun(o), live[i].Stats, res[i].Stats)
			}
		}
	}
}
