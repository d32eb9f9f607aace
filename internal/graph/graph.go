// Package graph provides the undirected-graph substrate for the coloring
// library: construction, generators for the workload families used in the
// experiments, structural properties (degrees, degeneracy, arboricity
// bounds), orientations (complete and partial, Section 2.1 of the paper),
// and verifiers for legal, defective and arbdefective colorings.
//
// Vertices are 0-based ints. The distributed runtime assigns the LOCAL-model
// identifiers id(v) in {1..n} separately (possibly permuted), so the graph
// package is agnostic of identifiers.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a finite simple undirected graph with adjacency lists.
// Adjacency lists are sorted; the position of a neighbor in the list is the
// "port number" used by the distributed runtime.
//
// Construct with NewBuilder/AddEdge/Build (deduplicates, rejects loops) or
// FromEdges. A built Graph is immutable.
type Graph struct {
	n   int
	m   int
	adj [][]int
}

// Builder accumulates edges for a Graph.
type Builder struct {
	n     int
	edges map[[2]int]struct{}
}

// NewBuilder returns a Builder for a graph on n vertices (0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, edges: make(map[[2]int]struct{})}
}

// AddEdge records the undirected edge {u,v}. Duplicate edges are ignored.
// It returns an error for loops or out-of-range endpoints.
func (b *Builder) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u > v {
		u, v = v, u
	}
	b.edges[[2]int{u, v}] = struct{}{}
	return nil
}

// Build finalizes the graph.
func (b *Builder) Build() *Graph {
	adj := make([][]int, b.n)
	for e := range b.edges { //distvet:unordered each adjacency list is sorted below, before anything reads it
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, l := range adj {
		sort.Ints(l)
	}
	return &Graph{n: b.n, m: len(b.edges), adj: adj}
}

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted adjacency list of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	l := g.adj[u]
	i := sort.SearchInts(l, v)
	return i < len(l) && l[i] == v
}

// PortOf returns the port index of neighbor u in v's adjacency list,
// or -1 if u is not a neighbor of v.
func (g *Graph) PortOf(v, u int) int {
	l := g.adj[v]
	i := sort.SearchInts(l, u)
	if i < len(l) && l[i] == u {
		return i
	}
	return -1
}

// MaxDegree returns Delta(G), the maximum degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// Edges returns all edges as (u,v) pairs with u < v, sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for v := 0; v < g.n; v++ {
		for _, u := range g.adj[v] {
			if v < u {
				out = append(out, [2]int{v, u})
			}
		}
	}
	return out
}

// InducedSubgraph returns the subgraph induced by the given vertex set,
// together with the mapping newIndex -> originalVertex. Vertices keep the
// relative order of the input set (duplicates are an error).
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int, error) {
	idx := make(map[int]int, len(vertices))
	orig := make([]int, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.n {
			return nil, nil, fmt.Errorf("graph: vertex %d out of range", v)
		}
		if _, dup := idx[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d", v)
		}
		idx[v] = i
		orig[i] = v
	}
	b := NewBuilder(len(vertices))
	for i, v := range vertices {
		for _, u := range g.adj[v] {
			if j, ok := idx[u]; ok && i < j {
				if err := b.AddEdge(i, j); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return b.Build(), orig, nil
}

// ConnectedComponents returns the vertex sets of the connected components.
func (g *Graph) ConnectedComponents() [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		c := len(comps)
		comp[s] = c
		queue = queue[:0]
		queue = append(queue, s)
		members := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.adj[v] {
				if comp[u] < 0 {
					comp[u] = c
					queue = append(queue, u)
					members = append(members, u)
				}
			}
		}
		comps = append(comps, members)
	}
	return comps
}

// IsForest reports whether the graph is acyclic.
func (g *Graph) IsForest() bool {
	// A graph is a forest iff every component has |E| = |V| - 1,
	// equivalently m = n - #components.
	return g.m == g.n-len(g.ConnectedComponents())
}
