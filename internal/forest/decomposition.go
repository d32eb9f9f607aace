package forest

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
)

// ForestsDecomposition partitions the edge set into forests (Lemma 2.2(2)):
// ForestOf maps each edge (keyed by its (min,max) endpoints) to a forest
// index in [0, NumForests). Each forest is an edge-disjoint acyclic
// subgraph, and NumForests <= floor((2+eps)a).
type ForestsDecomposition struct {
	Sigma      *graph.Orientation
	ForestOf   map[[2]int]int
	NumForests int
	Rounds     int
	Messages   int64
}

// forestAssign: each vertex locally labels its outgoing (parent) edges with
// distinct forest indices 0,1,2,... in port order. No communication needed
// beyond the orientation exchange; the assignment round is free.
type forestAssign struct{}

// MessageWords implements dist.Algorithm; the assignment is purely
// local, so no message is ever sent.
func (forestAssign) MessageWords() int { return 1 }

// InputWidth and OutputWidth implement dist.Algorithm: one parent-flag
// word in and one forest-index word out per visible port (-1 marks a
// non-parent edge).
func (forestAssign) InputWidth() int  { return dist.PerPort }
func (forestAssign) OutputWidth() int { return dist.PerPort }

//distvet:noalloc
func (forestAssign) InitWords(n *dist.Node) {
	flags := n.InputWords()
	out := n.OutputWords()
	next := int64(0)
	for p, w := range flags {
		if w != 0 {
			out[p] = next
			next++
		} else {
			out[p] = -1
		}
	}
	n.Halt()
}

//distvet:noalloc
func (forestAssign) StepWords(n *dist.Node, inbox dist.WordInbox) {}

// Decompose computes an O(a)-forests decomposition in O(log n) time
// (Lemma 2.2(2)): H-partition, (level,id) orientation, then local forest
// assignment of each vertex's <= floor((2+eps)a) outgoing edges.
func Decompose(net *dist.Network, a int, eps Eps) (*ForestsDecomposition, error) {
	or, _, err := CompleteAcyclicOrientation(net, a, eps)
	if err != nil {
		return nil, err
	}
	return DecomposeWithOrientation(net, or.Sigma, or.Rounds, or.Messages)
}

// DecomposeWithOrientation derives the forests decomposition from an
// existing acyclic orientation; baseRounds/baseMessages are added to the
// reported cost.
func DecomposeWithOrientation(net *dist.Network, sigma *graph.Orientation, baseRounds int, baseMessages int64) (*ForestsDecomposition, error) {
	g := net.Graph()
	n := g.N()
	forestOf := make(map[[2]int]int, g.M())
	numForests := 0
	record := func(v, u, f int) {
		if f < 0 {
			return
		}
		key := [2]int{v, u}
		if u < v {
			key = [2]int{u, v}
		}
		forestOf[key] = f
		if f+1 > numForests {
			numForests = f + 1
		}
	}
	// Unfiltered run: visible ports coincide with the graph's port
	// numbering, so the parent flags can be read per port, in parallel
	// against the cached topology.
	col := net.PortColumn(nil, nil, func(v int, ports []int, out []int64) {
		for p := range ports {
			if sigma.IsParentPort(v, p) {
				out[p] = 1
			}
		}
	})
	res, err := net.Run(forestAssign{}, dist.RunOptions{InputWords: col})
	if err != nil {
		return nil, err
	}
	out, off := res.OutputWords, 0
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		for p, u := range nbrs {
			record(v, u, int(out[off+p]))
		}
		off += len(nbrs)
	}

	return &ForestsDecomposition{
		Sigma:      sigma,
		ForestOf:   forestOf,
		NumForests: numForests,
		Rounds:     baseRounds + res.Rounds,
		Messages:   baseMessages + res.Messages,
	}, nil
}

// Forest materializes forest f as a spanning subgraph of the original
// vertex set (so vertex indices are unchanged).
func (fd *ForestsDecomposition) Forest(f int) (*graph.Graph, error) {
	if f < 0 || f >= fd.NumForests {
		return nil, fmt.Errorf("forest: index %d out of range [0,%d)", f, fd.NumForests)
	}
	b := graph.NewBuilder(fd.Sigma.Graph().N())
	for e, fi := range fd.ForestOf {
		if fi == f {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// Validate checks the decomposition invariants: every edge is assigned to
// exactly one forest, and every forest is acyclic.
func (fd *ForestsDecomposition) Validate() error {
	g := fd.Sigma.Graph()
	if len(fd.ForestOf) != g.M() {
		return fmt.Errorf("forest: %d of %d edges assigned", len(fd.ForestOf), g.M())
	}
	for f := 0; f < fd.NumForests; f++ {
		fg, err := fd.Forest(f)
		if err != nil {
			return err
		}
		if !fg.IsForest() {
			return fmt.Errorf("forest: part %d contains a cycle", f)
		}
	}
	return nil
}
