// Package orient implements Section 3's orientation procedures:
//
//   - Procedure Partial-Orientation (Algorithm 1, Theorem 3.5): an acyclic
//     partial orientation with out-degree floor((2+eps)a), deficit at most
//     floor(a/t) and length O(t^2 log n), computed in O(log n) rounds by
//     combining an H-partition with per-level defective colorings.
//   - Procedure Complete-Orientation (Lemma 3.3): an acyclic complete
//     orientation with out-degree floor((2+eps)a) and length O(a log n)
//     (with per-level (Delta+1)-coloring) or O(a^2 log n) (with the faster
//     per-level Linial coloring), computed in O(a + log n) rounds.
//
// Both run within label-filtered subgraphs so that Procedure Legal-Coloring
// (Algorithm 2) can recurse on all subgraphs in parallel.
package orient

import (
	"fmt"

	"repro/internal/deltacolor"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/recolor"
)

// LevelColoring selects how Procedure Complete-Orientation colors the
// levels of the H-partition.
type LevelColoring int

const (
	// LevelLinial colors levels with Linial's O(theta^2)-coloring in
	// O(log* n) rounds; orientation length grows to O(a^2 log n).
	LevelLinial LevelColoring = iota + 1
	// LevelDeltaPlusOne colors levels with the linear-in-Delta
	// (theta+1)-coloring of [5, 17]; orientation length is O(a log n) as
	// in Lemma 3.3, at an O(theta) round cost.
	LevelDeltaPlusOne
)

// Result bundles an orientation with the partition that produced it and
// the accumulated cost.
type Result struct {
	// Orient is the orientation's direction column. Its LengthBound is
	// the paper's NumLevels * (LevelPalette + 1): a directed path rises
	// through the levels and, within one, through distinct level colors
	// (Lemma 3.3, Theorem 3.5).
	Orient *forest.OrientResult
	HP     *forest.HPartition
	// LevelColors is the per-level coloring used as the orientation key.
	LevelColors []int
	// LevelPalette is the number of colors used within each level.
	LevelPalette int
	Tally        *dist.Tally
}

// Partial computes Procedure Partial-Orientation(G, t) with arboricity
// bound a (Theorem 3.5): out-degree <= floor((2+eps)a), deficit <=
// floor(a/t), length O(t^2 log n), in O(log n) rounds. labels/active
// restrict to subgraphs (each of arboricity <= a); cross-label edges are
// left untouched and do not count towards the deficit.
func Partial(net *dist.Network, a, t int, eps forest.Eps, labels []int, active []bool) (*Result, error) {
	if t < 1 {
		return nil, fmt.Errorf("orient: t must be >= 1, got %d", t)
	}
	return run(net, a, eps, labels, active, func(levelLabels []int) ([]int, int, dist.RunStats, error) {
		// Step 2 of Algorithm 1: floor(a/t)-defective O(t^2)-coloring of
		// each G(H_i) in parallel.
		g := net.Graph()
		n := g.N()
		degBound := eps.Threshold(a)
		target := a / t
		plan := recolor.Plan(n, degBound, target)
		colors := make([]int, n)
		p := recolor.Params{Color: -1, M0: n, DegBound: degBound, TargetDefect: target}
		st, err := recolor.RunUniform(net, p, nil, levelLabels, active, colors)
		if err != nil {
			return nil, 0, dist.RunStats{}, err
		}
		return colors, plan.FinalColors(), st, nil
	})
}

// Complete computes Procedure Complete-Orientation with arboricity bound a
// (Lemma 3.3): a complete acyclic orientation of out-degree
// floor((2+eps)a). The method selects the per-level coloring (see
// LevelColoring). labels/active restrict to subgraphs.
func Complete(net *dist.Network, a int, eps forest.Eps, method LevelColoring, labels []int, active []bool) (*Result, error) {
	return run(net, a, eps, labels, active, func(levelLabels []int) ([]int, int, dist.RunStats, error) {
		g := net.Graph()
		n := g.N()
		degBound := eps.Threshold(a)
		switch method {
		case LevelLinial:
			plan := recolor.Plan(n, degBound, 0)
			colors := make([]int, n)
			p := recolor.Params{Color: -1, M0: n, DegBound: degBound, TargetDefect: 0}
			st, err := recolor.RunUniform(net, p, nil, levelLabels, active, colors)
			if err != nil {
				return nil, 0, dist.RunStats{}, err
			}
			return colors, plan.FinalColors(), st, nil
		case LevelDeltaPlusOne:
			dres, err := deltacolor.ColorWithin(net, levelLabels, active, degBound)
			if err != nil {
				return nil, 0, dist.RunStats{}, err
			}
			st := dist.RunStats{
				Rounds:   dres.Tally.Rounds(),
				Messages: dres.Tally.Messages(),
				Wall:     dres.Tally.Wall(),
				PeakLive: dres.Tally.PeakLive(),
			}
			return dres.Colors, dres.Palette, st, nil
		default:
			return nil, 0, dist.RunStats{}, fmt.Errorf("orient: unknown level coloring %d", method)
		}
	})
}

// run factors the common three-step structure: H-partition, per-level
// coloring within (label x level) classes, then the (level, color)
// orientation exchange.
func run(net *dist.Network, a int, eps forest.Eps, labels []int, active []bool,
	colorLevels func(levelLabels []int) (colors []int, palette int, st dist.RunStats, err error),
) (*Result, error) {
	var tally dist.Tally

	net.Probe().SetPhase("orient/h-partition")
	hp, err := forest.ComputeHPartition(net, a, eps, labels, active)
	if err != nil {
		return nil, err
	}
	tally.AddStats("h-partition", hp.RunStats)

	levelLabels := hp.Level
	if labels != nil {
		levelLabels = dist.ComposeLabels(labels, hp.Level)
	}
	net.Probe().SetPhase("orient/level-coloring")
	colors, palette, st, err := colorLevels(levelLabels)
	if err != nil {
		return nil, err
	}
	tally.AddStats("level-coloring", st)

	net.Probe().SetPhase("orient/orientation")
	or, err := forest.OrientByLevelKey(net, hp.Level, colors, labels, active)
	if err != nil {
		return nil, err
	}
	or.LengthBound = hp.NumLevels * (palette + 1)
	tally.AddStats("orientation", or.RunStats)

	return &Result{
		Orient:       or,
		HP:           hp,
		LevelColors:  colors,
		LevelPalette: palette,
		Tally:        &tally,
	}, nil
}

// Stats are the measured parameters of a (partial) orientation restricted
// to a subgraph family (Section 2.1 definitions).
type Stats struct {
	OutDegree int
	Deficit   int
	Length    int
	Acyclic   bool
}

// MeasureWithin measures out-degree, deficit and length of sigma counting
// only intra-label edges between active vertices. With nil labels/active
// it measures the whole graph. It reads sigma alone, so it verifies an
// orientation independently of the engine that computed it.
func MeasureWithin(sigma *graph.Orientation, labels []int, active []bool) Stats {
	g := sigma.Graph()
	var s Stats
	for v := 0; v < g.N(); v++ {
		if active != nil && !active[v] {
			continue
		}
		out, def := 0, 0
		dirs := sigma.PortDirs(v)
		for p, u := range g.Neighbors(v) {
			if (active != nil && !active[u]) || (labels != nil && labels[v] != labels[u]) {
				continue
			}
			switch {
			case dirs[p] == graph.Unoriented:
				def++
			case sigma.IsParentPort(v, p):
				out++
			}
		}
		s.OutDegree = max(s.OutDegree, out)
		s.Deficit = max(s.Deficit, def)
	}
	length, err := sigma.Length()
	s.Acyclic = err == nil
	if s.Acyclic {
		s.Length = length
	}
	return s
}
