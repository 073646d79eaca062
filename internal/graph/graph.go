// Package graph provides the synthetic RMAT graph generator and the CSR
// representation the GAP-style kernels run on (paper §5.1: synthetically
// generated RMAT graphs, Chakrabarti et al. 2004).
package graph

import (
	"fmt"
	"sort"
)

// CSR is a graph in compressed sparse row form. Offsets has N+1 entries;
// the neighbors of vertex v are Neigh[Offsets[v]:Offsets[v+1]], sorted
// ascending. Weights, when present, parallels Neigh.
type CSR struct {
	N       int
	Offsets []uint32
	Neigh   []uint32
	Weights []uint32
}

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Validate checks CSR structural invariants (test helper).
func (g *CSR) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("offsets length %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("offsets[0] = %d, want 0", g.Offsets[0])
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("offsets not monotone at %d", v)
		}
		prev := int64(-1)
		for i := g.Offsets[v]; i < g.Offsets[v+1]; i++ {
			n := g.Neigh[i]
			if int(n) >= g.N {
				return fmt.Errorf("vertex %d: neighbor %d out of range", v, n)
			}
			if int64(n) <= prev {
				return fmt.Errorf("vertex %d: neighbors not strictly ascending", v)
			}
			prev = int64(n)
		}
	}
	if int(g.Offsets[g.N]) != len(g.Neigh) {
		return fmt.Errorf("offsets[N] = %d, want %d", g.Offsets[g.N], len(g.Neigh))
	}
	if g.Weights != nil && len(g.Weights) != len(g.Neigh) {
		return fmt.Errorf("weights length %d, want %d", len(g.Weights), len(g.Neigh))
	}
	return nil
}

// RNG is splitmix64: tiny, fast, deterministic across platforms.
type RNG struct{ state uint64 }

// NewRNG seeds a deterministic generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Next returns the next 64 random bits.
func (r *RNG) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float returns a float64 in [0,1).
func (r *RNG) Float() float64 { return float64(r.Next()>>11) / (1 << 53) }

// Intn returns a value in [0,n).
func (r *RNG) Intn(n int) int { return int(r.Next() % uint64(n)) }

// RMAT parameters from the GAP/Graph500 convention.
const (
	rmatA = 0.57
	rmatB = 0.19
	rmatC = 0.19
)

// RMAT generates an undirected RMAT graph with 2^scale vertices and about
// degree*2^scale undirected edges (each stored in both directions),
// deduplicated, self-loops removed, neighbors sorted. When weighted is
// true, edge weights in [1,255] are assigned symmetrically.
func RMAT(scale, degree int, seed uint64, weighted bool) *CSR {
	n := 1 << scale
	m := n * degree
	rng := NewRNG(seed)

	type edge struct{ u, v uint32 }
	edges := make([]edge, 0, 2*m)
	for i := 0; i < m; i++ {
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			p := rng.Float()
			switch {
			case p < rmatA:
				// top-left: nothing set
			case p < rmatA+rmatB:
				v |= 1 << bit
			case p < rmatA+rmatB+rmatC:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		edges = append(edges, edge{uint32(u), uint32(v)}, edge{uint32(v), uint32(u)})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})

	g := &CSR{N: n, Offsets: make([]uint32, n+1)}
	g.Neigh = make([]uint32, 0, len(edges))
	var last edge
	havePrev := false
	for _, e := range edges {
		if havePrev && e == last {
			continue
		}
		g.Neigh = append(g.Neigh, e.v)
		g.Offsets[e.u+1]++
		last, havePrev = e, true
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}

	if weighted {
		g.Weights = make([]uint32, len(g.Neigh))
		for v := 0; v < n; v++ {
			for i := g.Offsets[v]; i < g.Offsets[v+1]; i++ {
				u := g.Neigh[i]
				// Symmetric weights: derive from the unordered
				// vertex pair so (v,u) and (u,v) match.
				a, b := uint64(v), uint64(u)
				if a > b {
					a, b = b, a
				}
				h := NewRNG(seed ^ a<<32 ^ b).Next()
				g.Weights[i] = uint32(h%255) + 1
			}
		}
	}
	return g
}
