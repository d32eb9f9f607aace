// Package deltacolor implements deterministic (Delta+1)-coloring in time
// linear in Delta (plus polylog terms), reproducing the algorithms of
// Barenboim-Elkin STOC'09 [5] and Kuhn SPAA'09 [17] that the paper uses as
// a subroutine (Procedure Complete-Orientation, Lemma 3.3) and as a
// baseline.
//
// Structure (the defective-coloring recursion of [5, 17]):
//
//  1. Top-down: repeatedly split every current class with a
//     floor(d/2)-defective O(1)-coloring (Lemma 2.1); after each split the
//     intra-class degree bound halves. Stop at degree <= 3.
//  2. Base: color the final classes legally with Linial and reduce each to
//     (d_base+1) colors with the Kuhn-Wattenhofer reduction.
//  3. Bottom-up: merge sibling classes with disjoint palettes and reduce
//     the merged coloring back to (d+1) colors at each level.
//
// Total rounds: O(Delta) for the reductions (geometric series) plus
// O(log* n * log Delta) for the defective splits - the cited
// O(Delta + log* n) up to a log Delta factor on the log* n term, which
// this recursion pays for splitting with a fresh O(log* n) defective
// coloring at each of its O(log Delta) levels.
//
// The recursion runs "in parallel on all classes" via label-filtered views;
// labels are compacted centrally between phases, which is pure simulation
// bookkeeping: each node keeps its vector of per-level class labels and
// compares it with its neighbors' locally, so the compaction costs no
// round.
package deltacolor

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/recolor"
	"repro/internal/reduce"
)

// baseDegree is the degree bound at which the top-down recursion stops and
// Linial takes over.
const baseDegree = 3

// Result reports a (Delta+1)-coloring run.
type Result struct {
	Colors []int
	// Palette is the number of colors used (= degBound+1).
	Palette int
	Tally   *dist.Tally
}

// ColorDeltaPlusOne colors the graph legally with maxDegree+1 colors.
func ColorDeltaPlusOne(net *dist.Network) (*Result, error) {
	return ColorWithin(net, nil, nil, net.Graph().MaxDegree())
}

// NumLevels returns the number of top-down defective refinement levels
// of a ColorWithin run with the given degree bound - the halvings of d
// until the Linial base takes over.
func NumLevels(degBound int) int {
	levels := 0
	for d := degBound; d > baseDegree; d /= 2 {
		levels++
	}
	return levels
}

// ColorWithin colors every class of baseLabels (restricted to active
// vertices, both may be nil) legally with degBound+1 colors, where
// degBound bounds the visible degree of every vertex within its class.
// All classes run in parallel; color values lie in [0, degBound+1).
//
// The central bookkeeping between phases - label compaction, palette
// merges, reduction scratch - runs on buffers reused across all levels
// (one backing allocation holds every per-level snapshot), so the
// orchestration cost is O(levels * n) work with O(1) allocations per
// level; BenchmarkDeltaColorBookkeeping quantifies it.
func ColorWithin(net *dist.Network, baseLabels []int, active []bool, degBound int) (*Result, error) {
	g := net.Graph()
	n := g.N()
	if degBound < 0 {
		return nil, fmt.Errorf("deltacolor: negative degree bound %d", degBound)
	}
	var tally dist.Tally

	labels := make([]int, n)
	if baseLabels != nil {
		copy(labels, baseLabels)
	}

	// Top-down defective refinement. The per-level snapshots (the split
	// coloring and the labels it refined) are retained until the
	// bottom-up merges, so they cannot be reused across levels - but they
	// can share one backing array sized by the known level count.
	type level struct {
		classColor []int // per-vertex defective color at this level
		numClasses int   // S_i: classes each parent class splits into
		dBefore    int   // intra-class degree bound before the split
		dAfter     int   // intra-class degree bound after the split
		labels     []int // compacted labels BEFORE this split
	}
	numLevels := NumLevels(degBound)
	backing := make([]int, 2*numLevels*n)
	takeSnapshot := func() []int {
		s := backing[:n:n]
		backing = backing[n:]
		return s
	}
	levels := make([]level, 0, numLevels)
	composeIDs := make(map[[2]int]int, n)
	d := degBound
	for d > baseDegree {
		target := d / 2
		plan := recolor.Plan(n, d, target)
		classColor := takeSnapshot()
		p := recolor.Params{Color: -1, M0: n, DegBound: d, TargetDefect: target}
		net.Probe().SetPhase(fmt.Sprintf("deltacolor/defective(d=%d)", d))
		st, err := recolor.RunUniform(net, p, nil, labels, active, classColor)
		if err != nil {
			return nil, fmt.Errorf("deltacolor: defective split at d=%d: %w", d, err)
		}
		tally.AddStats(fmt.Sprintf("defective(d=%d)", d), st)
		lvLabels := takeSnapshot()
		copy(lvLabels, labels)
		levels = append(levels, level{
			classColor: classColor,
			numClasses: plan.FinalColors(),
			dBefore:    d,
			dAfter:     target,
			labels:     lvLabels,
		})
		dist.ComposeLabelsInto(labels, labels, classColor, composeIDs)
		d = target
	}

	// Base: Linial within the finest classes, then reduce to d+1 colors.
	basePlan := recolor.Plan(n, d, 0)
	colors := make([]int, n)
	p := recolor.Params{Color: -1, M0: n, DegBound: d, TargetDefect: 0}
	net.Probe().SetPhase("deltacolor/base-linial")
	st, err := recolor.RunUniform(net, p, nil, labels, active, colors)
	if err != nil {
		return nil, fmt.Errorf("deltacolor: base Linial: %w", err)
	}
	tally.AddStats("base-linial", st)

	var rpool reduce.Pool
	m := basePlan.FinalColors()
	net.Probe().SetPhase("deltacolor/base-reduce")
	st, err = reduce.KWPooled(net, colors, m, d+1, labels, active, &rpool, colors)
	if err != nil {
		return nil, fmt.Errorf("deltacolor: base reduction: %w", err)
	}
	tally.AddStats("base-reduce", st)
	palette := d + 1

	// Bottom-up merges: disjoint palettes per sibling class, then reduce
	// within the parent class. merged and the reduction pool are reused
	// across levels; the palette-merge sweep runs on the network's
	// worker pool.
	merged := make([]int, n)
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		net.Probe().SetPhase(fmt.Sprintf("deltacolor/merge(d=%d)", lv.dBefore))
		mergeStart := time.Now() //distvet:wallclock merge-phase wall attribution for the tally; wall figures are documented non-deterministic
		net.ParallelFor(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				merged[v] = lv.classColor[v]*palette + colors[v]
			}
		})
		m := lv.numClasses * palette
		target := lv.dBefore + 1
		st, err := reduce.KWPooled(net, merged, m, target, lv.labels, active, &rpool, colors)
		if err != nil {
			return nil, fmt.Errorf("deltacolor: merge at d=%d: %w", lv.dBefore, err)
		}
		palette = target
		// The merge phase's wall includes the central palette-merge sweep,
		// which precedes the reduction but belongs to this phase.
		st.Wall = time.Since(mergeStart) //distvet:wallclock same merge-phase wall attribution
		tally.AddStats(fmt.Sprintf("merge(d=%d)", lv.dBefore), st)
	}

	return &Result{Colors: colors, Palette: palette, Tally: &tally}, nil
}

// RoundsUpperBound estimates the round cost of ColorWithin for reporting:
// the defective splits cost O(log* n) each, the reductions a geometric
// series in degBound.
func RoundsUpperBound(n, degBound int) int {
	total := 0
	d := degBound
	for d > baseDegree {
		target := d / 2
		plan := recolor.Plan(n, d, target)
		total += plan.Rounds()
		total += reduce.Rounds(plan.FinalColors()*(target+1), d+1)
		d = target
	}
	base := recolor.Plan(n, d, 0)
	total += base.Rounds() + reduce.Rounds(base.FinalColors(), d+1)
	return total
}
