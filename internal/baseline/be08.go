package baseline

import (
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/orient"
)

// BE08Result reports a run of the PODC'08 coloring baseline.
type BE08Result struct {
	Colors  []int
	Palette int
	Tally   *dist.Tally
}

// BE08Coloring is the previous deterministic state of the art for graphs
// of bounded arboricity (Lemma 2.2(1), Barenboim-Elkin PODC'08): a legal
// (floor((2+eps)a)+1)-coloring in O(a log n) rounds, realized as Procedure
// Complete-Orientation (with (Delta+1)-colored levels, so the orientation
// length is O(a log n)) followed by the wait-for-parents greedy coloring.
//
// This is the baseline the paper's Legal-Coloring is measured against:
// same O(a) color count, but Theta(a log n) rounds instead of
// O(a^mu log n).
func BE08Coloring(net *dist.Network, a int, eps forest.Eps) (*BE08Result, error) {
	if eps == (forest.Eps{}) {
		eps = forest.DefaultEps
	}
	var tally dist.Tally
	co, err := orient.Complete(net, a, eps, orient.LevelDeltaPlusOne, nil, nil)
	if err != nil {
		return nil, err
	}
	tally.Merge(co.Tally)
	palette := eps.Threshold(a) + 1
	wc, err := forest.WaitColor(net.WithPhase(&tally, "greedy"), co.Orient, palette, forest.RuleFirstFree)
	if err != nil {
		return nil, err
	}
	return &BE08Result{Colors: wc.Colors, Palette: palette, Tally: &tally}, nil
}
