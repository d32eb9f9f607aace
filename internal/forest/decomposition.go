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
	// Orient is the complete acyclic orientation the forests follow.
	Orient     *OrientResult
	ForestOf   map[[2]int]int
	NumForests int
	Rounds     int
	Messages   int64
	g          *graph.Graph
}

// forestAssign: each vertex locally labels its outgoing (parent) edges with
// distinct forest indices 0,1,2,... in port order. No communication needed
// beyond the orientation exchange; the assignment round is free.
type forestAssign struct{}

// MessageWords implements dist.Algorithm; the assignment is purely
// local, so no message is ever sent.
func (forestAssign) MessageWords() int { return 1 }

// InputWidth and OutputWidth implement dist.Algorithm: one direction
// word (an orientation's Dirs) in and one forest-index word out per
// visible port (-1 marks a non-parent edge).
func (forestAssign) InputWidth() int  { return dist.PerPort }
func (forestAssign) OutputWidth() int { return dist.PerPort }

//distvet:noalloc
func (forestAssign) InitWords(n *dist.Node) {
	flags := n.InputWords()
	out := n.OutputWords()
	next := int64(0)
	for p, w := range flags {
		if w > 0 {
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
	g := net.Graph()
	// Unfiltered run: visible ports coincide with the graph's port
	// numbering, so the output decodes along the adjacency lists.
	res, err := net.Run(forestAssign{}, dist.RunOptions{InputWords: or.Dirs})
	if err != nil {
		return nil, err
	}
	fd := &ForestsDecomposition{
		Orient:   or,
		ForestOf: make(map[[2]int]int, g.M()),
		Rounds:   or.Rounds + res.Rounds,
		Messages: or.Messages + res.Messages,
		g:        g,
	}
	out, off := res.OutputWords, 0
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(v)
		for p, u := range nbrs {
			f := int(out[off+p])
			if f < 0 {
				continue
			}
			fd.ForestOf[[2]int{min(u, v), max(u, v)}] = f
			fd.NumForests = max(fd.NumForests, f+1)
		}
		off += len(nbrs)
	}
	return fd, nil
}

// Forest materializes forest f as a spanning subgraph of the original
// vertex set (so vertex indices are unchanged).
func (fd *ForestsDecomposition) Forest(f int) (*graph.Graph, error) {
	if f < 0 || f >= fd.NumForests {
		return nil, fmt.Errorf("forest: index %d out of range [0,%d)", f, fd.NumForests)
	}
	b := graph.NewBuilder(fd.g.N())
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
	if len(fd.ForestOf) != fd.g.M() {
		return fmt.Errorf("forest: %d of %d edges assigned", len(fd.ForestOf), fd.g.M())
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
