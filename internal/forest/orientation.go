package forest

import (
	"fmt"
	"slices"

	"repro/internal/dist"
	"repro/internal/graph"
)

// This file implements the orientation step shared by Lemma 2.4 and by
// Procedures Complete-Orientation / Partial-Orientation (Section 3): given
// an H-partition and a per-vertex key, orient each edge towards the
// endpoint with the lexicographically larger (level, key) pair; edges whose
// endpoints tie on both are left unoriented.
//
// With key = id, no ties occur and the result is the complete acyclic
// orientation of Lemma 2.4 (out-degree <= floor((2+eps)a), unbounded
// length). With key = a legal per-level coloring it is Procedure
// Complete-Orientation (length O(#colors * #levels)); with key = a
// defective per-level coloring it is Procedure Partial-Orientation
// (deficit <= per-level defect, length O(#colors * #levels)).

// orientExchange is the one-round exchange in which every vertex learns
// its neighbors' (level, key) pairs and derives its port directions
// locally.
type orientExchange struct{}

// orientDir compares a neighbor's (level, key) with ours: +1 parent,
// -1 child, 0 tie (unoriented).
func orientDir(myLevel, myKey, level, key int64) int64 {
	switch {
	case level > myLevel || (level == myLevel && key > myKey):
		return +1 // neighbor is our parent
	case level < myLevel || (level == myLevel && key < myKey):
		return -1 // neighbor is our child
	default:
		return 0
	}
}

// MessageWords implements dist.Algorithm: a message carries the sender's
// level and key.
func (orientExchange) MessageWords() int { return 2 }

// InputWidth and OutputWidth implement dist.Algorithm: two input words
// per vertex (level, key) and one direction word per visible port
// (+1 parent, -1 child, 0 unoriented/silent).
func (orientExchange) InputWidth() int  { return 2 }
func (orientExchange) OutputWidth() int { return dist.PerPort }

//distvet:noalloc
func (orientExchange) InitWords(n *dist.Node) {
	in := n.InputWords()
	for p := 0; p < n.Degree(); p++ {
		w := n.SendWords(p)
		w[0] = in[0]
		w[1] = in[1]
	}
}

//distvet:noalloc
func (orientExchange) StepWords(n *dist.Node, inbox dist.WordInbox) {
	in := n.InputWords()
	out := n.OutputWords()
	for p := range out {
		if !inbox.Has(p) {
			continue
		}
		w := inbox.Words(p)
		out[p] = orientDir(in[0], in[1], w[0], w[1])
	}
	n.Halt()
}

// OrientResult is a (partial) orientation in the one format every phase
// consumes: the direction column of the orientation exchange, i.e. what
// each vertex knows about its own ports after the exchange.
type OrientResult struct {
	// Dirs holds one word per visible port in the engine's per-port
	// layout under the filters the orientation ran under (active
	// vertices ascending, visible ports ascending): +1 parent, -1 child,
	// 0 unoriented. A run with the same filters takes it as its per-port
	// input column as is when its program only reads its input;
	// WaitColor, whose program writes its input, runs on a copy.
	Dirs []int64
	// labels and active are the orientation's own copies of those
	// filters (nil when unfiltered), so a caller that rewrites its labels
	// afterwards cannot shift the layout of Dirs.
	labels []int
	active []bool
	// OutDegree and Deficit are the largest number of parent and of
	// unoriented ports at any vertex (Section 2.1).
	OutDegree, Deficit int
	// LengthBound bounds the orientation's length: every directed path
	// strictly increases (level, key), so n-1 always holds; Procedures
	// Partial- and Complete-Orientation tighten it (orient.Result).
	LengthBound int
	dist.RunStats
}

// OrientByLevelKey runs the one-round orientation exchange. levels and keys
// are per-vertex; labels/active optionally restrict to subgraphs (edges
// across labels are not oriented). Each node only ever uses its own
// (level, key) and its neighbors' messages; the result is its per-port
// output column, copied out of the engine-owned output, with the
// out-degree and deficit counted in the same pass.
func OrientByLevelKey(net *dist.Network, levels, keys []int, labels []int, active []bool) (*OrientResult, error) {
	n := net.Graph().N()
	if len(levels) != n || len(keys) != n {
		return nil, fmt.Errorf("forest: levels/keys length mismatch")
	}
	col := make([]int64, 2*n)
	dist.ParallelFor(n, net.SweepWorkers(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			col[2*v] = int64(levels[v])
			col[2*v+1] = int64(keys[v])
		}
	})
	or := &OrientResult{labels: slices.Clone(labels), active: slices.Clone(active), LengthBound: max(n-1, 0)}
	res, err := net.Run(orientExchange{}, dist.RunOptions{InputWords: col, Labels: or.labels, Active: or.active})
	if err != nil {
		return nil, err
	}
	or.Dirs = slices.Clone(res.OutputWords)
	or.RunStats = res.Stats()
	off := 0
	net.ForEachVisible(or.labels, or.active, func(_ int, ports []int) {
		out, def := 0, 0
		for _, d := range or.Dirs[off : off+len(ports)] {
			switch d {
			case +1:
				out++
			case 0:
				def++
			}
		}
		off += len(ports)
		or.OutDegree = max(or.OutDegree, out)
		or.Deficit = max(or.Deficit, def)
	})
	return or, nil
}

// Orientation assembles the column into a graph.Orientation of net's
// graph, for callers that verify or return one. net must be the network
// the orientation was computed on.
func (or *OrientResult) Orientation(net *dist.Network) *graph.Orientation {
	sigma := graph.NewOrientation(net.Graph())
	off := 0
	net.ForEachVisible(or.labels, or.active, func(v int, ports []int) {
		for p, d := range or.Dirs[off : off+len(ports)] {
			if d == +1 {
				_ = sigma.Orient(v, ports[p]) // ports are v's neighbors
			}
		}
		off += len(ports)
	})
	return sigma
}

// CompleteAcyclicOrientation implements Lemma 2.4: an acyclic complete
// orientation with out-degree floor((2+eps)a) in O(log n) time, via an
// H-partition followed by the (level, id) orientation exchange.
func CompleteAcyclicOrientation(net *dist.Network, a int, eps Eps) (*OrientResult, *HPartition, error) {
	hp, err := ComputeHPartition(net, a, eps, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	ids := net.IDs()
	or, err := OrientByLevelKey(net, hp.Level, ids, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	or.Rounds += hp.Rounds
	or.Wall += hp.Wall
	or.PeakLive = max(or.PeakLive, hp.PeakLive)
	return or, hp, nil
}
