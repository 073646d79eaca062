package bpred

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// runPattern feeds a branch outcome pattern and returns the accuracy.
func runPattern(p Predictor, pcs []uint64, outcome func(i int, pc uint64) bool, n int) float64 {
	correct := 0
	for i := 0; i < n; i++ {
		pc := pcs[i%len(pcs)]
		actual := outcome(i, pc)
		pred, tok := p.Predict(pc, actual)
		p.OnFetch(pred)
		if pred == actual {
			correct++
		}
		p.Resolve(tok, pc, actual, true)
	}
	return float64(correct) / float64(n)
}

func TestOracleAlwaysRight(t *testing.T) {
	rng := graph.NewRNG(7)
	acc := runPattern(&Oracle{}, []uint64{4, 8}, func(i int, pc uint64) bool {
		return rng.Next()&1 == 0
	}, 2000)
	if acc != 1.0 {
		t.Fatalf("oracle accuracy %f", acc)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	acc := runPattern(NewBimodal(12), []uint64{100}, func(i int, pc uint64) bool {
		return i%10 != 0 // 90% taken
	}, 5000)
	if acc < 0.85 {
		t.Fatalf("bimodal accuracy %f on 90%% biased branch", acc)
	}
}

func TestGshareLearnsAlternation(t *testing.T) {
	acc := runPattern(NewGshare(14, 12), []uint64{100}, func(i int, pc uint64) bool {
		return i%2 == 0
	}, 5000)
	if acc < 0.95 {
		t.Fatalf("gshare accuracy %f on alternating branch", acc)
	}
}

func TestTAGELearnsLoop(t *testing.T) {
	// An inner loop of fixed trip count 7: taken 6x then not taken.
	// TAGE's history tables should learn the exit.
	acc := runPattern(NewTAGE(), []uint64{100}, func(i int, pc uint64) bool {
		return i%7 != 6
	}, 20000)
	if acc < 0.95 {
		t.Fatalf("TAGE accuracy %f on trip-count-7 loop", acc)
	}
}

func TestTAGEBeatsBimodalOnHistory(t *testing.T) {
	// Outcome depends on the previous two outcomes of another branch —
	// bimodal cannot see it, history predictors can.
	pattern := []bool{true, true, false, true, false, false, true, false}
	out := func(i int, pc uint64) bool { return pattern[i%len(pattern)] }
	tage := runPattern(NewTAGE(), []uint64{100}, out, 20000)
	bim := runPattern(NewBimodal(12), []uint64{100}, out, 20000)
	if tage <= bim {
		t.Fatalf("TAGE %.3f not better than bimodal %.3f on a periodic pattern", tage, bim)
	}
	if tage < 0.95 {
		t.Fatalf("TAGE accuracy %f on periodic pattern", tage)
	}
}

func TestTAGERandomIsHarmless(t *testing.T) {
	// On incompressible outcomes, any predictor hovers near 50%; the
	// test guards against pathological (< 40%) behavior.
	rng := graph.NewRNG(99)
	acc := runPattern(NewTAGE(), []uint64{1, 2, 3}, func(i int, pc uint64) bool {
		return rng.Next()&1 == 0
	}, 20000)
	if acc < 0.40 {
		t.Fatalf("TAGE accuracy %f on random branches", acc)
	}
}

func TestHistoryRepair(t *testing.T) {
	// After a misprediction with repairHist, the speculative history must
	// equal snapshot<<1|actual.
	g := NewGshare(14, 12)
	for i := 0; i < 100; i++ {
		actual := i%3 == 0
		pred, tok := g.Predict(uint64(50), actual)
		g.OnFetch(pred)
		// Pollute history with wrong-path fetches.
		g.OnFetch(!actual)
		g.OnFetch(actual)
		g.Resolve(tok, 50, actual, true)
		if pred != actual {
			want := tok.Hist<<1 | b2u(actual)
			if g.hist != want {
				t.Fatalf("history not repaired: got %x want %x", g.hist, want)
			}
		}
	}
}

func TestNoRepairKeepsHistory(t *testing.T) {
	g := NewGshare(14, 12)
	actual := true
	pred, tok := g.Predict(10, actual)
	g.OnFetch(pred)
	g.OnFetch(false)
	before := g.hist
	g.Resolve(tok, 10, !pred, false) // mispredicted, no repair (selective flush)
	if g.hist != before {
		t.Fatal("history repaired despite repairHist=false")
	}
}

// TestTAGEFoldBounds: table indices stay in range for arbitrary histories.
func TestTAGEFoldBounds(t *testing.T) {
	tg := NewTAGE()
	f := func(pc, hist uint64) bool {
		for i := 0; i < tageTables; i++ {
			if tg.index(pc, i, hist) >= 1<<tageIdxBits {
				return false
			}
			if tg.tagOf(pc, i, hist) >= 1<<tageTagBits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(16, 2)
	if _, hit := b.Lookup(100); hit {
		t.Fatal("cold hit")
	}
	b.Insert(100, 7)
	if tgt, hit := b.Lookup(100); !hit || tgt != 7 {
		t.Fatal("lookup after insert")
	}
	// Conflict eviction: three PCs in the same set of a 2-way BTB.
	b.Insert(116, 1) // 116 % 16 == 100 % 16? No: use same set via +16*k
	b.Insert(100+16, 2)
	b.Insert(100+32, 3)
	hits := 0
	for _, pc := range []uint64{100, 116, 132} {
		if _, h := b.Lookup(pc); h {
			hits++
		}
	}
	if hits > 2 {
		t.Fatal("eviction did not happen in a 2-way set")
	}
}

func TestNewByName(t *testing.T) {
	for name, want := range map[string]Predictor{
		"tage": &TAGE{}, "gshare": &Gshare{}, "bimodal": &Bimodal{},
		"static": Static{}, "oracle": &Oracle{},
	} {
		if err := Validate(name); err != nil {
			t.Errorf("Validate(%q): %v", name, err)
		}
		if got := New(name); reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Errorf("New(%q) is a %T, want %T", name, got, want)
		}
	}
	if err := Validate("tagee"); err == nil || !strings.Contains(err.Error(), "tage, gshare, bimodal, static, oracle") {
		t.Errorf("Validate(tagee) = %v, want an error listing the predictors", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown predictor did not panic")
		}
	}()
	New("nope")
}

// TestFoldMatchesEveryChunk checks that fold, which stops once the
// remaining history is zero, equals XORing every width-bit chunk of the
// low n bits, for every history length and index or tag width TAGE uses.
func TestFoldMatchesEveryChunk(t *testing.T) {
	every := func(h uint64, n, width uint) uint64 {
		h &= 1<<n - 1
		var f uint64
		for ; n > 0; n -= min(n, width) {
			f ^= h & (1<<width - 1)
			h >>= width
		}
		return f
	}
	f := func(h uint64, shift uint8) bool {
		h >>= shift % 64 // short histories leave high chunks zero
		for _, n := range tageHistLen {
			for _, w := range []uint{tageIdxBits, tageTagBits, tageTagBits - 1} {
				if fold(h, n, w) != every(h, n, w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
