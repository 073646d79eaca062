package graph

import (
	"testing"
	"testing/quick"
)

func TestRMATValid(t *testing.T) {
	for _, scale := range []int{4, 8, 10} {
		g := RMAT(scale, 8, 1, false)
		if g.N != 1<<scale {
			t.Fatalf("N = %d", g.N)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("scale %d: %v", scale, err)
		}
	}
}

func TestRMATSymmetric(t *testing.T) {
	g := RMAT(8, 8, 3, false)
	adj := map[[2]uint32]bool{}
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neigh[g.Offsets[v]:g.Offsets[v+1]] {
			adj[[2]uint32{uint32(v), w}] = true
		}
	}
	for e := range adj {
		if !adj[[2]uint32{e[1], e[0]}] {
			t.Fatalf("edge %v has no reverse", e)
		}
	}
}

func TestRMATNoSelfLoopsNoDuplicates(t *testing.T) {
	g := RMAT(8, 8, 5, false)
	for v := 0; v < g.N; v++ {
		var prev int64 = -1
		for _, w := range g.Neigh[g.Offsets[v]:g.Offsets[v+1]] {
			if int(w) == v {
				t.Fatalf("self loop at %d", v)
			}
			if int64(w) <= prev {
				t.Fatalf("duplicate/unsorted neighbor at %d", v)
			}
			prev = int64(w)
		}
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(8, 8, 42, true)
	b := RMAT(8, 8, 42, true)
	if len(a.Neigh) != len(b.Neigh) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.Neigh {
		if a.Neigh[i] != b.Neigh[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("nondeterministic graph")
		}
	}
}

func TestRMATSkewed(t *testing.T) {
	// RMAT graphs are power-law-ish: the max degree should far exceed
	// the average.
	g := RMAT(10, 8, 1, false)
	maxDeg, sum := 0, 0
	for v := 0; v < g.N; v++ {
		d := g.Degree(v)
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := sum / g.N
	if maxDeg < 4*avg {
		t.Fatalf("degree distribution not skewed: max %d avg %d", maxDeg, avg)
	}
}

func TestWeightsSymmetric(t *testing.T) {
	g := RMAT(7, 8, 9, true)
	w := func(a, b uint32) uint32 {
		for i := g.Offsets[a]; i < g.Offsets[a+1]; i++ {
			if g.Neigh[i] == b {
				return g.Weights[i]
			}
		}
		return 0
	}
	for v := 0; v < g.N; v++ {
		for i := g.Offsets[v]; i < g.Offsets[v+1]; i++ {
			u := g.Neigh[i]
			if g.Weights[i] != w(u, uint32(v)) {
				t.Fatalf("asymmetric weight (%d,%d)", v, u)
			}
			if g.Weights[i] == 0 || g.Weights[i] > 255 {
				t.Fatalf("weight out of range: %d", g.Weights[i])
			}
		}
	}
}

// TestRNGQuick: splitmix64 streams from distinct seeds differ, and the
// same seed reproduces.
func TestRNGQuick(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 10; i++ {
			if a.Next() != b.Next() {
				return false
			}
		}
		c := NewRNG(seed + 1)
		same := 0
		for i := 0; i < 10; i++ {
			if NewRNG(seed).Next() == c.Next() {
				same++
			}
		}
		return same < 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
