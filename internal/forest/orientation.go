package forest

import (
	"fmt"
	"time"

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
// its neighbors' (level, key) pairs and derives parent-port flags locally.
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

// OrientResult bundles the distributed orientation with its cost.
type OrientResult struct {
	Sigma    *graph.Orientation
	Rounds   int
	Messages int64
	// Wall and PeakLive are host-side observability figures; see
	// HPartition.
	Wall     time.Duration
	PeakLive int
}

// Stats returns the run-stat view of the orientation cost.
func (r *OrientResult) Stats() dist.RunStats {
	return dist.RunStats{Rounds: r.Rounds, Messages: r.Messages, Wall: r.Wall, PeakLive: r.PeakLive}
}

// OrientByLevelKey runs the one-round orientation exchange. levels and keys
// are per-vertex; labels/active optionally restrict to subgraphs (edges
// across labels are not oriented). The orientation is assembled centrally
// from the per-node outputs for verification and later phases; each node
// only ever used its own (level, key) and its neighbors' messages.
func OrientByLevelKey(net *dist.Network, levels, keys []int, labels []int, active []bool) (*OrientResult, error) {
	g := net.Graph()
	n := g.N()
	if len(levels) != n || len(keys) != n {
		return nil, fmt.Errorf("forest: levels/keys length mismatch")
	}
	sigma := graph.NewOrientation(g)
	col := make([]int64, 2*n)
	dist.ParallelFor(n, net.SweepWorkers(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			col[2*v] = int64(levels[v])
			col[2*v+1] = int64(keys[v])
		}
	})
	res, err := net.Run(orientExchange{}, dist.RunOptions{InputWords: col, Labels: labels, Active: active})
	if err != nil {
		return nil, err
	}
	// Decode the per-port direction column in the engine's layout
	// order (active vertices ascending, visible ports ascending),
	// served from the session's cached topology. The central sigma
	// assembly stays serial: Orient mutates both endpoints' entries.
	out, off := res.OutputWords, 0
	var orientErr error
	net.ForEachVisible(labels, active, func(v int, ports []int) {
		dirs := out[off : off+len(ports)]
		off += len(ports)
		for p, d := range dirs {
			if d == +1 && orientErr == nil {
				orientErr = sigma.Orient(v, ports[p])
			}
		}
	})
	if orientErr != nil {
		return nil, orientErr
	}
	return &OrientResult{Sigma: sigma, Rounds: res.Rounds, Messages: res.Messages, Wall: res.Wall, PeakLive: res.PeakLive}, nil
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
	if hp.PeakLive > or.PeakLive {
		or.PeakLive = hp.PeakLive
	}
	return or, hp, nil
}
