package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Generators for the workload families used by the experiments. All take an
// explicit *rand.Rand so runs are reproducible from a seed.

// Path returns the path on n vertices.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		_ = b.AddEdge(v, v+1)
	}
	return b.Build()
}

// Cycle returns the cycle on n >= 3 vertices.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs n >= 3, got %d", n)
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		_ = b.AddEdge(v, (v+1)%n)
	}
	return b.Build(), nil
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(0, v)
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			_ = b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{l,r}: vertices 0..l-1 on the left,
// l..l+r-1 on the right.
func CompleteBipartite(l, r int) *Graph {
	b := NewBuilder(l + r)
	for u := 0; u < l; u++ {
		for v := 0; v < r; v++ {
			_ = b.AddEdge(u, l+v)
		}
	}
	return b.Build()
}

// Grid returns the rows x cols grid graph (arboricity <= 2).
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				_ = b.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < rows {
				_ = b.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	return b.Build()
}

// RandomTree returns a uniformly random labelled tree on n vertices
// (random attachment: vertex i attaches to a uniform earlier vertex; this is
// a random recursive tree, adequate for benchmarking).
func RandomTree(n int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(v, rng.Intn(v))
	}
	return b.Build()
}

// Gnp returns an Erdos-Renyi G(n, p) graph, using geometric skipping so
// sparse graphs are generated in O(n + m) expected time.
func Gnp(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	if p <= 0 || n < 2 {
		return b.Build()
	}
	if p >= 1 {
		return Complete(n)
	}
	logq := math.Log(1 - p)
	// Enumerate pairs (u,v), u<v, as a flat index and jump geometrically.
	total := n * (n - 1) / 2
	pos := -1
	for {
		u01 := rng.Float64()
		if u01 >= 1 {
			u01 = math.Nextafter(1, 0)
		}
		pos += 1 + int(math.Log(1-u01)/logq)
		if pos >= total || pos < 0 {
			return b.Build()
		}
		// Decode pos into (u, v).
		u := 0
		rem := pos
		rowLen := n - 1
		for rem >= rowLen {
			rem -= rowLen
			u++
			rowLen--
		}
		_ = b.AddEdge(u, u+1+rem)
	}
}

// ForestUnion returns a graph that is the union of k random spanning-ish
// forests on n vertices, so its arboricity is at most k by construction.
// Each forest is a random recursive tree over a random permutation of the
// vertices; overlapping edges are deduplicated (arboricity only drops).
func ForestUnion(n, k int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	perm := make([]int, n)
	for f := 0; f < k; f++ {
		copy(perm, rng.Perm(n))
		for i := 1; i < n; i++ {
			_ = b.AddEdge(perm[i], perm[rng.Intn(i)])
		}
	}
	return b.Build()
}

// StarForest returns a graph of small arboricity but huge maximum degree:
// the union of `arb` random forests (arboricity <= arb+1) plus `hubs`
// high-degree star centers each connected to a random sample of
// `hubDegree` vertices. Stars form one extra forest, so arboricity <= arb+1,
// while Delta >= hubDegree. This is the paper's favourable regime
// (a polynomially smaller than Delta), used by experiments E13 and E18.
func StarForest(n, arb, hubs, hubDegree int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	perm := make([]int, n)
	for f := 0; f < arb; f++ {
		copy(perm, rng.Perm(n))
		for i := 1; i < n; i++ {
			_ = b.AddEdge(perm[i], perm[rng.Intn(i)])
		}
	}
	if hubDegree >= n {
		hubDegree = n - 1
	}
	for h := 0; h < hubs && h < n; h++ {
		// Hub h connects to hubDegree distinct random non-hub vertices.
		for _, off := range rng.Perm(n - hubs)[:min(hubDegree, n-hubs)] {
			_ = b.AddEdge(h, hubs+off)
		}
	}
	return b.Build()
}

// PowerLawish returns a preferential-attachment graph where each new vertex
// attaches to k earlier vertices chosen proportionally to degree+1.
// Such graphs have degeneracy <= k (hence arboricity <= k) and a heavy
// degree tail, mimicking social-network workloads.
func PowerLawish(n, k int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	// Repeated-endpoint list for proportional sampling.
	endpoints := make([]int, 0, 2*n*k)
	endpoints = append(endpoints, 0)
	// chosen keeps the draws in draw order, so the endpoint list - and
	// every later draw - is a function of the seed.
	chosen := make([]int, 0, k)
	for v := 1; v < n; v++ {
		attach := min(k, v)
		chosen = chosen[:0]
		for len(chosen) < attach {
			// endpoints holds only vertices below v.
			if u := endpoints[rng.Intn(len(endpoints))]; !slices.Contains(chosen, u) {
				chosen = append(chosen, u)
			}
		}
		for _, u := range chosen {
			_ = b.AddEdge(v, u)
			endpoints = append(endpoints, u)
		}
		endpoints = append(endpoints, v)
	}
	return b.Build()
}

// RandomRegularish returns a graph where every vertex has degree ~d, built
// by the pairing model with collision retries (simple graph, near-regular).
func RandomRegularish(n, d int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u != v {
			_ = b.AddEdge(u, v) // duplicates silently dropped
		}
	}
	return b.Build()
}

// UnitDiskish returns a random geometric ("unit disk") graph on an
// r x r torus grid: n points placed uniformly, edges between points at
// grid distance <= radius. Models wireless sensor networks (example app).
func UnitDiskish(n int, side, radius float64, rng *rand.Rand) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * side
		ys[i] = rng.Float64() * side
	}
	b := NewBuilder(n)
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if dx*dx+dy*dy <= r2 {
				_ = b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}
