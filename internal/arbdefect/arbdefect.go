// Package arbdefect implements the paper's arbdefective coloring
// procedures - the new concept the paper introduces (Definition 2.1):
//
//   - Procedure Simple-Arbdefective (Theorem 3.2): given an acyclic partial
//     orientation of length l, out-degree m and deficit tau, computes a
//     (tau + floor(m/k))-arbdefective k-coloring in O(l) rounds by having
//     each vertex wait for its parents and pick the color fewest parents
//     chose.
//   - Procedure Arbdefective-Coloring (Corollary 3.6): Partial-Orientation
//     followed by Simple-Arbdefective, producing a
//     floor(a/t + (2+eps)a/k)-arbdefective k-coloring in O(t^2 log n)
//     rounds. This is the engine of Procedure Legal-Coloring.
//   - Algorithm Arb-Kuhn (Section 5): a complete acyclic orientation
//     (Lemma 2.4) followed by iterated Arb-Recolor (Algorithm 3), giving a
//     d-arbdefective O((a/d)^2)-coloring in O(log n) rounds.
package arbdefect

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/orient"
	"repro/internal/recolor"
)

// SimpleResult reports a Simple-Arbdefective run.
type SimpleResult struct {
	Colors []int
	// Bound is the guaranteed arbdefect tau + floor(m/k), from the
	// orientation's deficit tau and out-degree m (Theorem 3.2).
	Bound int
	// RunStats is the wait-for-parents run's cost.
	dist.RunStats
}

// Simple runs Procedure Simple-Arbdefective on an acyclic (partial)
// orientation with k colors (Theorem 3.2), within the subgraphs the
// orientation was computed under. The orientation is not modified, so
// one orientation can feed several runs.
func Simple(net *dist.Network, or *forest.OrientResult, k int) (*SimpleResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("arbdefect: k must be >= 1, got %d", k)
	}
	wc, err := forest.WaitColor(net, or, k, forest.RuleLeastUsed)
	if err != nil {
		return nil, err
	}
	return &SimpleResult{Colors: wc.Colors, Bound: or.Deficit + or.OutDegree/k, RunStats: wc.RunStats}, nil
}

// ColoringResult reports a full Arbdefective-Coloring run.
type ColoringResult struct {
	// Colors is a k-coloring; every color class induces a subgraph of
	// arboricity at most Bound.
	Colors []int
	// Bound is the guaranteed arbdefect floor(a/t) + floor(theta(a)/k)
	// (Corollary 3.6; theta = floor((2+eps)a)).
	Bound int
	// Orient is the partial orientation witnessing the bound (Lemma 2.5
	// after completing each color class's orientation).
	Orient *forest.OrientResult
	Tally  *dist.Tally
}

// Coloring runs Procedure Arbdefective-Coloring(G, k, t) with arboricity
// bound a (Corollary 3.6): Partial-Orientation then Simple-Arbdefective.
// Rounds: O(t^2 log n). labels/active restrict to subgraphs of arboricity
// at most a each.
func Coloring(net *dist.Network, a, k, t int, eps forest.Eps, labels []int, active []bool) (*ColoringResult, error) {
	if k < 1 || t < 1 {
		return nil, fmt.Errorf("arbdefect: k=%d, t=%d must be >= 1", k, t)
	}
	po, err := orient.Partial(net, a, t, eps, labels, active)
	if err != nil {
		return nil, err
	}
	var tally dist.Tally
	tally.Merge(po.Tally)
	sr, err := Simple(net.WithPhase(&tally, "simple-arbdefective"), po.Orient, k)
	if err != nil {
		return nil, err
	}
	return &ColoringResult{
		Colors: sr.Colors,
		Bound:  a/t + eps.Threshold(a)/k,
		Orient: po.Orient,
		Tally:  &tally,
	}, nil
}

// KuhnResult reports an Arb-Kuhn run (Section 5).
type KuhnResult struct {
	// Colors is an O((a/d)^2)-coloring with arbdefect at most Defect.
	Colors []int
	// Defect is the guaranteed arbdefect d.
	Defect int
	// Orient is the complete acyclic orientation witnessing the bound.
	Orient *forest.OrientResult
	Tally  *dist.Tally
}

// Kuhn runs the full Arb-Kuhn pipeline of Section 5 on the whole graph:
// Lemma 2.4's complete acyclic orientation (O(log n) rounds) followed by
// iterated Arb-Recolor (O(log* n) rounds), producing a
// floor(a/t)-arbdefective O(t^2)-coloring.
func Kuhn(net *dist.Network, a, t int, eps forest.Eps) (*KuhnResult, error) {
	if t < 1 {
		return nil, fmt.Errorf("arbdefect: t must be >= 1, got %d", t)
	}
	var tally dist.Tally
	or, _, err := forest.CompleteAcyclicOrientation(net.WithPhase(&tally, "complete-orientation"), a, eps)
	if err != nil {
		return nil, err
	}
	d := a / t
	res, err := recolor.ArbKuhn(net.WithPhase(&tally, "arb-recolor"), or.Dirs, or.OutDegree, d)
	if err != nil {
		return nil, err
	}
	return &KuhnResult{
		Colors: res.Colors,
		Defect: d,
		Orient: or,
		Tally:  &tally,
	}, nil
}
