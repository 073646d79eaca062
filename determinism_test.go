package blp

import (
	"reflect"
	"testing"
)

// TestRunnerReplayDeterministic runs the inner-sliced bc and sssp Fig. 7
// reserve sweep on a fresh Runner three times over. Every pass captures
// each workload's trace once and replays all six reserve points from it,
// and every replayed Result must equal the unmemoized live run of the
// same options. Replay has one path — a wrong path is always a fresh
// shadow fork from the replay's reconstructed state — so nothing a
// replay leaves behind can change what a later replay computes.
func TestRunnerReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 12 sweep points live and 36 replayed")
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
		if st := r.Stats(); st.Captured != 2 || st.Replayed != len(sweep) {
			t.Fatalf("pass %d accounting: %+v; want Captured=2 Replayed=%d", pass, st, len(sweep))
		}
		for i, o := range sweep {
			if !reflect.DeepEqual(res[i], live[i]) {
				t.Errorf("pass %d: %s diverges from its live run:\nlive   %+v\nreplay %+v",
					pass, describeRun(o), live[i].Stats, res[i].Stats)
			}
		}
	}
}
