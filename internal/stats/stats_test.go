package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHarmonicMean(t *testing.T) {
	if hm := HarmonicMeanSpeedup([]float64{1, 1, 1}); hm != 1 {
		t.Fatalf("hm of ones = %f", hm)
	}
	if hm := HarmonicMeanSpeedup([]float64{2, 2}); math.Abs(hm-2) > 1e-12 {
		t.Fatalf("hm = %f", hm)
	}
	// Harmonic mean of {1,2} is 4/3.
	if hm := HarmonicMeanSpeedup([]float64{1, 2}); math.Abs(hm-4.0/3) > 1e-12 {
		t.Fatalf("hm = %f", hm)
	}
	if HarmonicMeanSpeedup(nil) != 0 || HarmonicMeanSpeedup([]float64{0}) != 0 {
		t.Fatal("degenerate inputs")
	}
}

// A NaN speedup (an unmeasurable comparison, e.g. against a zero-cycle
// run) must poison the mean visibly rather than be averaged in, dropped,
// or — worst — surface as a plausible-looking finite value.
func TestHarmonicMeanPropagatesNaN(t *testing.T) {
	nan := math.NaN()
	for _, in := range [][]float64{
		{nan},
		{1.2, nan, 1.4},
		{nan, nan},
		{nan, 0}, // NaN wins over the zero short-circuit: checked first
	} {
		if hm := HarmonicMeanSpeedup(in); !math.IsNaN(hm) {
			t.Fatalf("hm(%v) = %f, want NaN", in, hm)
		}
	}
	if hm := HarmonicMeanSpeedup([]float64{1, 2}); math.IsNaN(hm) {
		t.Fatal("NaN-free input should stay finite")
	}
}

// The harmonic mean lies between the smallest speedup and the arithmetic
// mean (the HM-AM inequality).
func TestMeanOrderingQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, sum := math.Inf(1), 0.0
		for i, r := range raw {
			xs[i] = 0.1 + float64(r)/1000
			lo = math.Min(lo, xs[i])
			sum += xs[i]
		}
		hm := HarmonicMeanSpeedup(xs)
		return lo-1e-9 <= hm && hm <= sum/float64(len(xs))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.500") ||
		!strings.Contains(out, "42") {
		t.Fatalf("table output missing data:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("got %d lines", len(lines))
	}
	// Columns align: every line has the same prefix width for column 2.
	col2 := strings.Index(lines[0], "value")
	for _, ln := range lines[2:] {
		if len(ln) < col2 {
			t.Fatalf("misaligned row %q", ln)
		}
	}
}
