// Package reduce implements batched color reduction in the style of
// Kuhn-Wattenhofer: a legal m-coloring of a graph with maximum degree
// Delta < t is transformed into a legal t-coloring in O(t * log(m/t))
// rounds, by splitting the color space into groups of 2t colors, folding
// the upper half of each group into the lower half one color class at a
// time (a color class is an independent set, so it recolors in a single
// round), and renumbering between phases. This is the standard reduction
// used by the linear-in-Delta coloring algorithms [5, 17] that the paper
// builds on.
package reduce

import (
	"fmt"
	"sync"

	"repro/internal/dist"
)

// makePlan returns the number of fold rounds per phase derived from (m, t):
// each phase folds offsets [t, t+folds) of every 2t-sized group into the
// low half, then renumbers, roughly halving m.
func makePlan(m, t int) []int {
	var phases []int
	for m > t {
		span := 2 * t
		if m < span {
			span = m
		}
		phases = append(phases, span-t)
		m = (m + 2*t - 1) / (2 * t) * t
	}
	return phases
}

// Rounds returns the total communication rounds the reduction costs,
// including the initial neighbor-color exchange.
func Rounds(m, t int) int {
	if m <= t {
		return 0
	}
	total := 1
	for _, f := range makePlan(m, t) {
		total += f
	}
	return total
}

// Algo is the vertex program performing the reduction. Construct it with
// newAlgo: the phase plan is derived once and shared, each node's
// neighbor-color table is a slice of one flat caller-owned arena, and the
// fold/phase position is derived from the round number (all nodes run
// the plan in lockstep) - so a run performs no per-vertex allocation.
// newAlgo returns a pointer and *Algo implements dist.Algorithm: the
// twelve-word value would otherwise be copied on every per-vertex call.
// Word layout: the input column is one word per vertex (the initial
// color), the output column one word per vertex (the node's current -
// and finally legal - color).
type Algo struct {
	// M and Target are the uniform globally known parameters (m, t): the
	// current palette size (color values lie in [0, M)) and the final
	// one, which must exceed every visible degree. All nodes of a
	// labelled class derive the phase plan from them identically.
	M, Target int

	// plan is makePlan(M, Target), shared read-only by all nodes.
	plan []int
	// nbrs is the flat neighbor-color arena; node v owns
	// nbrs[off[v]:off[v]+deg(v)], initialized to -1 by the orchestrator.
	nbrs []int
	off  []int32
	// pool recycles the transient taken-color scan buffer.
	pool *sync.Pool
}

// newAlgo prepares the program for one run. nbrs/off is the per-port
// arena laid out by KWPooled.
func newAlgo(m, target int, nbrs []int, off []int32) *Algo {
	return &Algo{
		M: m, Target: target,
		plan: makePlan(m, target),
		nbrs: nbrs, off: off,
		pool: &sync.Pool{New: func() any { return new(takenScratch) }},
	}
}

type takenScratch struct{ taken []bool }

// MessageWords implements dist.Algorithm.
func (Algo) MessageWords() int { return 1 }

// InputWidth implements dist.Algorithm: one initial-color word per
// vertex.
func (Algo) InputWidth() int { return 1 }

// OutputWidth implements dist.Algorithm: one color word per vertex.
func (Algo) OutputWidth() int { return 1 }

// InitWords publishes the initial color and announces it unless the
// palette is already small enough.
//
//distvet:noalloc
func (a *Algo) InitWords(n *dist.Node) {
	color := n.InputWords()[0]
	n.SetOutputWord(color)
	if a.M <= a.Target {
		n.Halt()
		return
	}
	n.SendAllWord(color)
}

// StepWords runs one fold/renumber round against the flat arena, with
// the (phase, fold) position derived from the round number instead of
// per-node counters.
//
//distvet:noalloc
func (a *Algo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	deg := n.Degree()
	o := int(a.off[n.Vertex()])
	nbr := a.nbrs[o : o+deg : o+deg]
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			nbr[p] = int(inbox.Word(p))
		}
	}
	t := a.Target
	if n.Round() == 1 {
		return // initial exchange round; folding starts next round
	}
	phase, fold := a.position(n.Round())

	// Fold round: recolor the color class with in-group offset j.
	folds := a.plan[phase]
	j := t + folds - 1 - fold
	color := int(n.OutputWords()[0])
	recolored := false
	if color%(2*t) == j {
		lo := color / (2 * t) * (2 * t)
		sc := a.pool.Get().(*takenScratch)
		if cap(sc.taken) < t {
			sc.taken = make([]bool, t) //distvet:alloc-ok one-time growth of the pooled taken buffer to the phase's target
		}
		taken := sc.taken[:t]
		clear(taken)
		for _, c := range nbr {
			if c >= lo && c < lo+t {
				taken[c-lo] = true
			}
		}
		newColor := -1
		for c := 0; c < t; c++ {
			if !taken[c] {
				newColor = lo + c
				break
			}
		}
		a.pool.Put(sc)
		if newColor < 0 {
			n.Failf("reduce: no free color (visible degree exceeds target-1)")
			return
		}
		color = newColor
		recolored = true
	}

	if fold == folds-1 {
		// Phase complete: renumber c -> (c/2t)*t + (c mod 2t). All
		// in-group offsets are now < t, so the mapping is injective and
		// every node applies it locally to its own color and its
		// neighbor table.
		color = color/(2*t)*t + color%(2*t)
		for i, c := range nbr {
			if c >= 0 {
				nbr[i] = c/(2*t)*t + c%(2*t)
			}
		}
		if phase == len(a.plan)-1 {
			n.Halt()
		}
	}
	n.SetOutputWord(int64(color))
	// Announce after any renumbering so receivers, who renumber their
	// tables in the same round, record a consistently-numbered value.
	// Halting sends are still delivered.
	if recolored {
		n.SendAllWord(int64(color))
	}
}

// position derives the (phase, fold-within-phase) of the given round
// from the shared plan: round 2 executes the first fold, and every node
// advances one fold per round in lockstep.
func (a *Algo) position(round int) (phase, fold int) {
	k := round - 2
	for p, folds := range a.plan {
		if k < folds {
			return p, k
		}
		k -= folds
	}
	// Unreachable: every node halts on the last fold of the last phase.
	panic(fmt.Sprintf("reduce: round %d beyond the %d-phase plan", round, len(a.plan)))
}

// Result reports a reduction run.
type Result struct {
	Colors []int
	dist.RunStats
}

// Pool holds the reusable scratch of KWPooled - the per-port
// neighbor-color arena, its offsets and the input column - so
// orchestrators that reduce once per recursion level stop reallocating
// them. The zero value is ready; it grows to the largest run it serves.
type Pool struct {
	nbrs []int
	off  []int32
	col  []int64
}

// KW reduces a legal m-coloring to a legal target-coloring within each
// label class (labels/active may be nil for the whole graph). target must
// exceed the maximum visible degree. Costs O(target * log(m/target))
// rounds.
func KW(net *dist.Network, colors []int, m, target int, labels []int, active []bool) (*Result, error) {
	out := make([]int, len(colors))
	var pool Pool
	st, err := KWPooled(net, colors, m, target, labels, active, &pool, out)
	if err != nil {
		return nil, err
	}
	return &Result{Colors: out, RunStats: st}, nil
}

// KWPooled is KW threading caller-owned scratch: dst (length n) receives
// the reduced coloring and pool is reused across calls. dst may alias
// colors - the input column is filled before the run and decoded after.
// The returned
// RunStats carries the LOCAL cost plus the engine run's wall time and
// peak live-set size for phase attribution.
func KWPooled(net *dist.Network, colors []int, m, target int, labels []int, active []bool, pool *Pool, dst []int) (dist.RunStats, error) {
	g := net.Graph()
	n := g.N()
	if len(colors) != n {
		return dist.RunStats{}, fmt.Errorf("reduce: %d colors for %d vertices", len(colors), n)
	}
	if len(dst) != n {
		return dist.RunStats{}, fmt.Errorf("reduce: %d color slots for %d vertices", len(dst), n)
	}
	if target < 1 {
		return dist.RunStats{}, fmt.Errorf("reduce: target %d < 1", target)
	}
	// Lay out the per-port arena in the engine's column order (served
	// from the session's cached topology), then fill the arena and
	// the input column in parallel.
	if cap(pool.off) < n {
		pool.off = make([]int32, n)
	}
	off := pool.off[:n]
	total := 0
	net.ForEachVisible(labels, active, func(v int, ports []int) {
		off[v] = int32(total)
		total += len(ports)
	})
	if cap(pool.nbrs) < total {
		pool.nbrs = make([]int, total)
	}
	nbrs := pool.nbrs[:total]
	net.ParallelFor(total, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nbrs[i] = -1
		}
	})
	if cap(pool.col) < n {
		pool.col = make([]int64, n)
	}
	col := pool.col[:n]
	net.ParallelFor(n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			col[v] = int64(colors[v])
		}
	})
	res, err := net.Run(newAlgo(m, target, nbrs, off), dist.RunOptions{
		InputWords: col, Labels: labels, Active: active,
	})
	if err != nil {
		return dist.RunStats{}, err
	}
	if err := dist.IntsFromWords(res, dst); err != nil {
		return dist.RunStats{}, err
	}
	return res.Stats(), nil
}
