// Package forest implements the forests-decomposition machinery of
// Barenboim-Elkin PODC'08, which the paper imports as Lemmas 2.2-2.5:
// H-partitions, acyclic bounded-out-degree orientations, O(a)-forests
// decompositions, and the wait-for-parents coloring engine behind
// Procedure Simple-Arbdefective and Appendix A.
package forest

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
)

// Eps is the rational epsilon of the H-partition threshold
// floor((2+eps)*a). The zero value is invalid; use DefaultEps.
type Eps struct {
	Num, Den int
}

// DefaultEps is eps = 1/4, giving threshold floor(9a/4).
var DefaultEps = Eps{Num: 1, Den: 4}

// Threshold returns floor((2+eps)*a).
func (e Eps) Threshold(a int) int {
	return (2*e.Den + e.Num) * a / e.Den
}

// MaxLevels bounds the number of H-partition levels for an n-vertex graph
// of arboricity at most a: each peeling round removes at least an
// eps/(2+eps) fraction of the remaining vertices.
func (e Eps) MaxLevels(n int) int {
	if n <= 1 {
		return 1
	}
	shrink := float64(2*e.Den+e.Num) / float64(2*e.Den) // (2+eps)/2 > 1
	return int(math.Ceil(math.Log(float64(n))/math.Log(shrink))) + 2
}

// ErrArboricityTooSmall is returned when the H-partition stalls, which
// happens exactly when the supplied arboricity bound is below the true
// arboricity of the graph.
var ErrArboricityTooSmall = errors.New("forest: H-partition stalled; arboricity bound too small")

// HPartition is the result of the peeling decomposition (Lemma 2.3):
// Level[v] in {1..NumLevels} is the H-index of v, and every vertex has at
// most Degree neighbors in its own or higher levels.
type HPartition struct {
	Level     []int
	NumLevels int
	// Degree is the guaranteed bound floor((2+eps)*a) on the number of
	// same-or-higher-level neighbors of any vertex.
	Degree int
	// RunStats is the peeling run's cost. Its Wall and PeakLive are
	// host-side observability figures, as in every phase result; they are
	// not deterministic and not part of the algorithmic result.
	dist.RunStats
}

// hpartitionAlgo implements the peeling: every active vertex beacons each
// round; a vertex whose active-neighbor count drops to the threshold joins
// the current level and goes silent.
type hpartitionAlgo struct {
	threshold int
}

// MessageWords implements dist.Algorithm: the beacon is a single
// (ignored) word; presence is the signal.
func (hpartitionAlgo) MessageWords() int { return 1 }

// InputWidth and OutputWidth implement dist.Algorithm: the peeling takes
// no input and reports one level word per vertex.
func (hpartitionAlgo) InputWidth() int  { return 0 }
func (hpartitionAlgo) OutputWidth() int { return 1 }

//distvet:noalloc
func (hpartitionAlgo) InitWords(n *dist.Node) {
	n.SendAllWord(1)
}

//distvet:noalloc
func (a hpartitionAlgo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	activeNbrs := 0
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			activeNbrs++
		}
	}
	if activeNbrs <= a.threshold {
		n.SetOutputWord(int64(n.Round()))
		n.Halt()
		return
	}
	n.SendAllWord(1)
}

// ComputeHPartition runs the distributed peeling with arboricity bound a.
// Time O(log n) when a is a valid bound (Lemma 2.3); returns
// ErrArboricityTooSmall otherwise.
//
// labels/active optionally restrict the computation to labelled subgraphs,
// in which case a must bound the arboricity of every subgraph and level
// indices are per-subgraph.
func ComputeHPartition(net *dist.Network, a int, eps Eps, labels []int, active []bool) (*HPartition, error) {
	if a < 1 {
		return nil, fmt.Errorf("forest: arboricity bound must be >= 1, got %d", a)
	}
	if eps.Num <= 0 || eps.Den <= 0 {
		return nil, fmt.Errorf("forest: invalid eps %d/%d", eps.Num, eps.Den)
	}
	g := net.Graph()
	threshold := eps.Threshold(a)
	budget := eps.MaxLevels(g.N()) + 2
	algo := hpartitionAlgo{threshold: threshold}
	res, err := net.Run(algo, dist.RunOptions{MaxRounds: budget, Labels: labels, Active: active})
	if err != nil {
		if errors.Is(err, dist.ErrMaxRounds) {
			return nil, fmt.Errorf("%w (bound a=%d, threshold=%d)", ErrArboricityTooSmall, a, threshold)
		}
		return nil, err
	}
	levels := make([]int, g.N())
	if err := dist.IntsFromWords(res, levels); err != nil {
		return nil, err
	}
	numLevels := 0
	for _, l := range levels {
		if l > numLevels {
			numLevels = l
		}
	}
	return &HPartition{
		Level:     levels,
		NumLevels: numLevels,
		Degree:    threshold,
		RunStats:  res.Stats(),
	}, nil
}

// EstimateArboricity runs H-partitions with doubling arboricity guesses
// until one succeeds, returning the first admissible guess (at most twice
// the degeneracy) and the partition it produced. Total time O(log a log n).
// The tally has one phase hpartition(a=...) per guess. A failed guess
// costs its whole round budget: vertices learn that it failed only by
// waiting the budget out.
func EstimateArboricity(net *dist.Network, eps Eps) (int, *HPartition, *dist.Tally, error) {
	var tally dist.Tally
	for a := 1; a <= net.Graph().N(); a *= 2 {
		hp, err := ComputeHPartition(net.WithPhase(&tally, fmt.Sprintf("hpartition(a=%d)", a)), a, eps, nil, nil)
		if err == nil {
			return a, hp, &tally, nil
		}
		if !errors.Is(err, ErrArboricityTooSmall) {
			return 0, nil, nil, err
		}
	}
	return 0, nil, nil, fmt.Errorf("forest: estimation failed up to n")
}
