package recolor

import (
	"fmt"
	"sync"

	"repro/internal/dist"
	"repro/internal/field"
)

// Params are the globally known, vertex-uniform parameters of a
// recoloring run - the quantities every node of the (sub)graph derives
// its schedule from, so all of them run in lockstep.
type Params struct {
	// Color is the uniform initial color in [0, M0); a negative value
	// means "use ID-1" (the trivial legal n-coloring from identifiers).
	Color int
	// M0 is the size of the initial color space (n when starting from
	// IDs).
	M0 int
	// DegBound bounds the number of conflict neighbors of every node:
	// the maximum degree for the defective variant, the maximum
	// out-degree of the orientation for the arbdefective variant.
	DegBound int
	// TargetDefect is the final defect d (0 for a legal coloring).
	TargetDefect int
}

// Algo is the vertex program executing a recoloring schedule. Construct
// it with NewAlgo: the schedule's per-step agreement kernels and step
// scratch are resolved once per run and shared by all nodes (rt), so a
// run performs no per-vertex allocation at all. *Algo implements
// dist.Algorithm: the six-word value is wider than the four words a
// per-vertex call has left for its receiver, so the engine calls
// through a pointer and copies nothing per node.
// Word layout: the input column is an orientation's direction column,
// one word per visible port with +1 marking a parent (present only for
// the arbdefective variant); the output column is one word per vertex
// holding the node's current - and finally legal/defective - color.
type Algo struct {
	// P holds the uniform parameters.
	P Params

	// arb flags the arbdefective variant: conflict neighbors are the
	// parent ports (positive words) of the per-port input column.
	arb bool
	// rt is the shared read-only runtime, resolved once by NewAlgo.
	rt *algoRT
}

// algoRT is the run-shared runtime state of the program: everything
// every node of the run reads but never writes, resolved once by
// NewAlgo and reached from every Algo value through one pointer.
type algoRT struct {
	// roots holds one agreement kernel per schedule step, built once
	// per run by stepRoots.
	roots []*field.Roots
	// stats holds the shared per-step eval counters when process-wide
	// stats are on (field.SetEvalStats); nil otherwise, so the hot path
	// pays only a nil check.
	stats []*field.EvalCounters
	// maxQ sizes the per-worker step scratch.
	maxQ int
	// pool recycles step scratch across Step calls; sync.Pool keeps the
	// steady state allocation-free without per-node buffers.
	pool sync.Pool
}

// NewAlgo prepares the recoloring program for the given uniform
// parameters. arb selects the arbdefective variant, whose
// runs take a per-port direction input column.
func NewAlgo(p Params, arb bool) (Algo, error) {
	plan := Plan(p.M0, p.DegBound, p.TargetDefect)
	if err := plan.Validate(); err != nil {
		return Algo{}, err
	}
	maxQ := 0
	for _, step := range plan.Steps {
		if step.Q > maxQ {
			maxQ = step.Q
		}
	}
	rt := &algoRT{
		roots: stepRoots(plan),
		stats: stepEvalCounters(plan),
		maxQ:  maxQ,
	}
	rt.pool.New = func() any { return new(stepScratch) }
	return Algo{P: p, arb: arb, rt: rt}, nil
}

// MessageWords implements dist.Algorithm: every message is one color
// word.
func (Algo) MessageWords() int { return 1 }

// InputWidth implements dist.Algorithm: the arbdefective variant
// takes one direction word per visible port, the plain variant no
// input column at all.
func (a Algo) InputWidth() int {
	if a.arb {
		return dist.PerPort
	}
	return 0
}

// OutputWidth implements dist.Algorithm: one color word per vertex.
func (Algo) OutputWidth() int { return 1 }

// counter returns the shared eval counter of the given step, or nil when
// stats are off - the stats slice is only built when counting is
// enabled, so the common case is a single nil check.
func counter(stats []*field.EvalCounters, step int) *field.EvalCounters {
	if stats == nil {
		return nil
	}
	return stats[step]
}

// stepScratch is the transient per-step buffer set, recycled through
// algoRT.pool: it is only live within one StepWords call, so a handful
// of pooled instances serve all workers, and once grown a step
// performs no allocations.
type stepScratch struct {
	agrees    []int // per-point agreement counts
	row       []int // the ladder's row buffer (field.Roots.Recolor)
	conflicts []int // the conflict neighbors' colors
}

func (sc *stepScratch) grow(q int) {
	if cap(sc.agrees) < q {
		sc.agrees = make([]int, q)
		sc.row = make([]int, q)
	}
}

// InitWords derives nothing per node: the schedule is shared via the
// receiver (NewAlgo), the node's evolving color lives in its output word,
// and the step index is the round number - so no per-node state object
// exists at all. It sends the initial color when at least one step is
// required.
//
//distvet:noalloc
func (a *Algo) InitWords(n *dist.Node) {
	if a.P.TargetDefect >= a.P.DegBound {
		// A single color class already satisfies the defect bound; the
		// zeroed output word is the color 0.
		n.Halt()
		return
	}
	color := a.P.Color
	if color < 0 {
		color = n.ID() - 1
	}
	n.SetOutputWord(int64(color))
	if a.rt == nil || len(a.rt.roots) == 0 {
		n.Halt()
		return
	}
	n.SendAllWord(int64(color))
}

// stepRoots builds the agreement kernel of every schedule step, once
// per run: O(Q) tables per step, and Q^2 < M0 for every step that
// makes progress, so the cost stays far below the run's.
func stepRoots(plan Schedule) []*field.Roots {
	if len(plan.Steps) == 0 {
		return nil
	}
	roots := make([]*field.Roots, len(plan.Steps))
	for i, step := range plan.Steps {
		r, err := field.NewRoots(step.Q, step.D)
		if err != nil {
			// Unreachable: schedules only contain prime moduli
			// (Validate), and Plan searches degrees up to
			// maxDegreeSearch, the field kernel's limit.
			panic(fmt.Sprintf("recolor: invalid step %+v: %v", step, err))
		}
		roots[i] = r
	}
	return roots
}

// stepEvalCounters resolves the shared per-step eval counters of the
// schedule when process-wide stats are enabled (field.SetEvalStats);
// nil otherwise. Resolving once per algorithm construction keeps the
// registry lock out of the step loop.
func stepEvalCounters(plan Schedule) []*field.EvalCounters {
	if len(plan.Steps) == 0 || !field.EvalStatsEnabled() {
		return nil
	}
	cs := make([]*field.EvalCounters, len(plan.Steps))
	for i, step := range plan.Steps {
		cs[i] = field.StepCounters(i, step.Q, step.D)
	}
	return cs
}

// StepWords executes one recoloring round. The step index is Round()-1
// (all nodes run the schedule in lockstep) and the current color is the
// node's own output word, so the call touches no per-node state.
//
//distvet:noalloc
func (a *Algo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	rt := a.rt
	sc := rt.pool.Get().(*stepScratch)
	sc.grow(rt.maxQ)
	conflicts := sc.conflicts[:0]
	var flags []int64
	if a.arb {
		flags = n.InputWords()
	}
	for p := 0; p < inbox.Ports(); p++ {
		if !inbox.Has(p) {
			continue
		}
		if flags != nil && flags[p] <= 0 {
			continue
		}
		conflicts = append(conflicts, int(inbox.Word(p))) //distvet:alloc-ok amortized growth of the pooled scratch's conflicts buffer
	}
	step := n.Round() - 1
	color := rt.roots[step].Recolor(sc.agrees, sc.row, int(n.OutputWords()[0]), conflicts, counter(rt.stats, step))
	sc.conflicts = conflicts
	rt.pool.Put(sc)
	n.SetOutputWord(int64(color))
	if step+1 < len(rt.roots) {
		n.SendAllWord(int64(color))
		return
	}
	n.Halt()
}

// Result reports a whole-graph recoloring run.
type Result struct {
	Colors   []int
	Schedule Schedule
	dist.RunStats
}

// RunUniform executes the recoloring program with the uniform
// parameters p on the label/active-filtered subgraphs, writing each
// vertex's final color into dst (length n; inactive vertices report 0).
// dirs - an orientation's direction column under the same filters
// (forest.OrientResult.Dirs) - selects the arbdefective variant when
// non-nil: only parent ports count as conflicts. The returned RunStats
// carries the LOCAL cost plus the engine run's wall time and peak
// live-set size for phase attribution.
func RunUniform(net *dist.Network, p Params, dirs []int64, labels []int, active []bool, dst []int) (dist.RunStats, error) {
	if n := net.Graph().N(); len(dst) != n {
		return dist.RunStats{}, fmt.Errorf("recolor: %d color slots for %d vertices", len(dst), n)
	}
	algo, err := NewAlgo(p, dirs != nil)
	if err != nil {
		return dist.RunStats{}, err
	}
	res, err := net.Run(&algo, dist.RunOptions{InputWords: dirs, Labels: labels, Active: active})
	if err != nil {
		return dist.RunStats{}, err
	}
	if err := dist.IntsFromWords(res, dst); err != nil {
		return dist.RunStats{}, err
	}
	return res.Stats(), nil
}

// run executes the algorithm with uniform parameters on all vertices.
func run(net *dist.Network, p Params, dirs []int64) (Result, error) {
	plan := Plan(p.M0, p.DegBound, p.TargetDefect)
	if err := plan.Validate(); err != nil {
		return Result{}, err
	}
	colors := make([]int, net.Graph().N())
	st, err := RunUniform(net, p, dirs, nil, nil, colors)
	if err != nil {
		return Result{}, err
	}
	return Result{Colors: colors, Schedule: plan, RunStats: st}, nil
}

// Linial computes a legal O(Delta^2)-coloring in O(log* n) rounds
// (Linial FOCS'87, the paper's baseline and Lemma 2.1 ancestor).
func Linial(net *dist.Network) (Result, error) {
	g := net.Graph()
	return run(net, Params{
		Color:        -1,
		M0:           g.N(),
		DegBound:     g.MaxDegree(),
		TargetDefect: 0,
	}, nil)
}

// Defective computes a floor(Delta/p)-defective O(p^2)-coloring in
// O(log* n) rounds (Lemma 2.1 / Kuhn SPAA'09). p must be positive.
func Defective(net *dist.Network, p int) (Result, error) {
	if p <= 0 {
		return Result{}, fmt.Errorf("recolor: p must be positive, got %d", p)
	}
	g := net.Graph()
	delta := g.MaxDegree()
	return run(net, Params{
		Color:        -1,
		M0:           g.N(),
		DegBound:     delta,
		TargetDefect: delta / p,
	}, nil)
}

// ArbKuhn computes a d-arbdefective O((A/d)^2)-coloring, where A is the
// maximum out-degree of a complete acyclic orientation of the whole graph
// (Section 5, Algorithm Arb-Kuhn). dirs is that orientation's direction
// column (forest.OrientResult.Dirs) and outDegree its A. Each color
// class, with edges oriented as in dirs, has out-degree at most d,
// certifying arboricity at most d (Lemma 2.5). The orientation itself is
// typically produced by Lemma 2.4 in O(log n) rounds; this routine adds
// only O(log* n) rounds.
func ArbKuhn(net *dist.Network, dirs []int64, outDegree, d int) (Result, error) {
	if d < 0 {
		return Result{}, fmt.Errorf("recolor: negative arbdefect target %d", d)
	}
	g := net.Graph()
	if len(dirs) != 2*g.M() {
		return Result{}, fmt.Errorf("recolor: %d direction words for a graph with %d ports", len(dirs), 2*g.M())
	}
	return run(net, Params{
		Color:        -1,
		M0:           g.N(),
		DegBound:     outDegree,
		TargetDefect: d,
	}, dirs)
}
