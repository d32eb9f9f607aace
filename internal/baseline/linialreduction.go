package baseline

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
)

// Linial's classical reduction (Section 1.1 of the paper, [20]): an MIS
// algorithm yields a (Delta+1)-coloring in the same running time. Build the
// product graph G x K_{Delta+1} - one clone (v, c) per vertex and candidate
// color, with clone cliques per vertex and edges between same-color clones
// of adjacent vertices - and compute an MIS on it. Maximality forces
// exactly one chosen clone per vertex (a vertex has at most Delta
// neighbors, so at most Delta of its Delta+1 clones are blocked), and
// independence makes the chosen colors legal.
//
// Each real node simulates its Delta+1 clones, so the distributed running
// time equals the MIS time on the product (whose size is n*(Delta+1)).

// ProductGraph returns G x K_{Delta+1} and the clone indexer.
func ProductGraph(g *graph.Graph) (*graph.Graph, func(v, c int) int, int) {
	delta := g.MaxDegree()
	k := delta + 1
	idx := func(v, c int) int { return v*k + c }
	b := graph.NewBuilder(g.N() * k)
	for v := 0; v < g.N(); v++ {
		// Clone clique of v.
		for c1 := 0; c1 < k; c1++ {
			for c2 := c1 + 1; c2 < k; c2++ {
				_ = b.AddEdge(idx(v, c1), idx(v, c2))
			}
		}
		// Same-color conflicts with neighbors.
		for _, u := range g.Neighbors(v) {
			if u > v {
				for c := 0; c < k; c++ {
					_ = b.AddEdge(idx(v, c), idx(u, c))
				}
			}
		}
	}
	return b.Build(), idx, k
}

// LinialReductionColoring computes a (Delta+1)-coloring of g by running
// Luby's MIS on the product graph (the reduction composes with any MIS
// algorithm; Luby keeps the demonstration fast). Rounds reported are the
// MIS rounds on the product - the reduction's running time.
func LinialReductionColoring(g *graph.Graph, seed int64) (*RandColorResult, error) {
	product, idx, k := ProductGraph(g)
	pnet := dist.NewNetwork(product)
	mis, err := LubyMIS(pnet, seed)
	if err != nil {
		return nil, err
	}
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = -1
		for c := 0; c < k; c++ {
			if mis.InMIS[idx(v, c)] {
				if colors[v] >= 0 {
					return nil, fmt.Errorf("baseline: vertex %d chose two colors", v)
				}
				colors[v] = c
			}
		}
		if colors[v] < 0 {
			return nil, fmt.Errorf("baseline: vertex %d chose no color (MIS not maximal?)", v)
		}
	}
	return &RandColorResult{Colors: colors, RunStats: mis.RunStats}, nil
}
