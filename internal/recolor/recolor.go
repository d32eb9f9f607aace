package recolor

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/field"
	"repro/internal/graph"
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
// it with NewAlgo: the schedule, per-step row-table snapshots and step
// scratch are resolved once per run and shared by all nodes, so a run
// performs no per-vertex allocation at all. The shared state hangs off one pointer
// (rt), keeping the Algo value the engine copies per node call small.
// Word layout: the input column is one parent-flag word per visible
// port (present only for the arbdefective variant); the output column
// is one word per vertex holding the node's current - and finally
// legal/defective - color.
type Algo struct {
	// P holds the uniform parameters.
	P Params

	// arb flags the arbdefective variant: conflict neighbors are the
	// ports flagged nonzero in the per-port input column.
	arb bool
	// rt is the shared read-only runtime, resolved once by NewAlgo.
	rt *algoRT
}

// algoRT is the run-shared runtime state of the program: everything
// every node of the run reads but never writes. One pointer per Algo
// copy keeps the per-node interface-call receiver at three words of
// parameters plus this pointer.
type algoRT struct {
	// blocks is the per-step row-table snapshot (palette-sized via the
	// kernel resolve in stepBlocks, or the session hot-row cache when
	// the run came through RunUniform); the step loop never touches the
	// family's atomic table pointer.
	blocks []field.RowBlock
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
// runs take a per-port parent-flag input column.
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
		blocks: stepBlocks(plan),
		stats:  stepEvalCounters(plan),
		maxQ:   maxQ,
	}
	rt.pool.New = func() any { return new(wordScratch) }
	return Algo{P: p, arb: arb, rt: rt}, nil
}

// MessageWords implements dist.Algorithm: every message is one color
// word.
func (Algo) MessageWords() int { return 1 }

// InputWidth implements dist.Algorithm: the arbdefective variant
// takes one parent-flag word per visible port, the plain variant no
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

// stepScratch holds the reusable buffers of the recoloring step loop;
// once grown, a step performs no allocations.
type stepScratch struct {
	myRow  []int // fallback row buffer for indices beyond the cached table
	nbrRow []int
	agrees []int
}

func (sc *stepScratch) grow(q int) {
	if cap(sc.agrees) < q {
		sc.myRow = make([]int, q)
		sc.nbrRow = make([]int, q)
		sc.agrees = make([]int, q)
	}
}

// InitWords derives nothing per node: the schedule is shared via the
// receiver (NewAlgo), the node's evolving color lives in its output word,
// and the step index is the round number - so no per-node state object
// exists at all. It sends the initial color when at least one step is
// required.
//
//distvet:noalloc
func (a Algo) InitWords(n *dist.Node) {
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
	if a.rt == nil || len(a.rt.blocks) == 0 {
		n.Halt()
		return
	}
	n.SendAllWord(int64(color))
}

// stepBlocks resolves one row-table snapshot per schedule step: the
// memoized family (stepFamilies), grown to the step's palette bound and
// snapshotted once, so the step loop indexes a slice and never touches
// the family's atomic table pointer.
func stepBlocks(plan Schedule) []field.RowBlock {
	fams := stepFamilies(plan)
	if fams == nil {
		return nil
	}
	blocks := make([]field.RowBlock, len(fams))
	palette := plan.M0
	for i, step := range plan.Steps {
		blocks[i] = fams[i].Block(palette)
		palette = step.Q * step.Q
	}
	return blocks
}

// stepFamilies resolves the memoized family of every step once, at
// construction, so the step loop only indexes a slice. Each family's row table is
// sized to the step's actual palette bound (field.FamiliesFor): step 0
// evaluates colors in [0, M0), step i colors in [0, Q_{i-1}^2), so the
// shared cache grows exactly to what the schedule's evaluation loop
// will index instead of the fixed construction cap.
func stepFamilies(plan Schedule) []*field.Family {
	if len(plan.Steps) == 0 {
		return nil
	}
	fams := make([]*field.Family, len(plan.Steps))
	palette := plan.M0
	for i, step := range plan.Steps {
		fam, err := field.FamiliesFor(step.Q, step.D, palette)
		if err != nil {
			// Unreachable: schedules only contain prime moduli (Validate).
			panic(fmt.Sprintf("recolor: invalid step %+v: %v", step, err))
		}
		fams[i] = fam
		palette = step.Q * step.Q
	}
	return fams
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

// hotRowsKey keys the per-session hot-row cache in the network's
// session value store (dist.Network.SessionValue).
type hotRowsKey struct{}

// hotKey identifies one schedule step's resolved row surface: the step
// index plus the family parameters and palette bound that sized its
// table.
type hotKey struct{ step, q, d, palette int }

// hotRows is the session-scratch hot-row cache: per (step, family) the
// row-table snapshot the session's runs share. Families and their
// tables are process-wide already; what the cache pins is the resolved
// RowBlock value itself, so repeated runs over the same network reuse
// one snapshot (one rows slice) instead of re-touching the family's
// atomic table pointer per run. Entries only ever advance to snapshots
// covering at least as many rows (EnsureRows growth is monotone), so a
// cached block is always interchangeable with a fresh resolve.
type hotRows struct {
	mu     sync.Mutex
	blocks map[hotKey]field.RowBlock
}

// bindSession swaps the algorithm's per-step snapshots against the
// network session's hot-row cache: a cached snapshot covering as many
// rows as the fresh resolve replaces it (slice reuse across runs);
// otherwise the fresh, larger snapshot becomes the cached one. The
// exchange never changes any evaluated value - blocks of the same
// (q, d) family view the same monotone table - so colors and counter
// classifications are identical with or without the cache.
func (a Algo) bindSession(net *dist.Network) {
	if a.rt == nil || len(a.rt.blocks) == 0 {
		return
	}
	hot := net.SessionValue(hotRowsKey{}, func() any {
		return &hotRows{blocks: make(map[hotKey]field.RowBlock)}
	}).(*hotRows)
	hot.mu.Lock()
	defer hot.mu.Unlock()
	palette := a.P.M0
	for i := range a.rt.blocks {
		b := &a.rt.blocks[i]
		k := hotKey{step: i, q: b.Q(), d: b.Degree(), palette: palette}
		if cached, ok := hot.blocks[k]; ok && cached.Cached() >= b.Cached() {
			*b = cached
		} else {
			hot.blocks[k] = *b
		}
		palette = k.q * k.q
	}
}

// wordScratch is the transient per-step buffer set, recycled through
// algoRT.pool: the scratch is only live within one StepWords call, so a
// handful of pooled instances serve all workers.
type wordScratch struct {
	stepScratch
	conflicts []int
}

// StepWords executes one recoloring round. The step index is Round()-1
// (all nodes run the schedule in lockstep) and the current color is the
// node's own output word, so the call touches no per-node state.
//
//distvet:noalloc
func (a Algo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	rt := a.rt
	sc := rt.pool.Get().(*wordScratch)
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
		if flags != nil && flags[p] == 0 {
			continue
		}
		conflicts = append(conflicts, int(inbox.Word(p))) //distvet:alloc-ok amortized growth of the pooled scratch's conflicts buffer
	}
	step := n.Round() - 1
	color := sc.recolorOnce(&rt.blocks[step], int(n.OutputWords()[0]), conflicts, counter(rt.stats, step))
	sc.conflicts = conflicts
	rt.pool.Put(sc)
	n.SetOutputWord(int64(color))
	if step+1 < len(rt.blocks) {
		n.SendAllWord(int64(color))
		return
	}
	n.Halt()
}

// recolorOnce applies one Step: pick alpha minimizing agreements with
// differently-colored conflict neighbors and return alpha*q + phi_x(alpha).
// It sorts conflictColors in place into one contiguous run and hands the
// run to the batch kernel (field.RowBlock.AgreeRun): each distinct color
// is weighted by its multiplicity (agreement counts are per neighbor)
// and its row materialized at most once - a view into the block's table
// snapshot, or the division-free finite-difference kernel into scratch.
// No allocations, no atomic table loads, and no scalar Eval fallbacks on
// any input. ec, when non-nil, classifies every row materialization as
// a table hit or a batched kernel evaluation - exactly one count per
// distinct row.
//
//distvet:noalloc
func (sc *stepScratch) recolorOnce(b *field.RowBlock, x int, conflictColors []int, ec *field.EvalCounters) int {
	q := b.Q()
	ec.CountRow(b.Cached(), x)
	myRow := b.Row(x, sc.myRow)
	agrees := sc.agrees[:q]
	clear(agrees)
	slices.Sort(conflictColors)
	b.AgreeRun(agrees, myRow, conflictColors, x, sc.nbrRow, ec)
	bestAlpha := 0
	for alpha := 1; alpha < q; alpha++ {
		if agrees[alpha] < agrees[bestAlpha] {
			bestAlpha = alpha
		}
	}
	return bestAlpha*q + myRow[bestAlpha]
}

// recolorOnce is the convenience form used by tests: it resolves the
// memoized family for the step and runs the zero-alloc core on fresh
// scratch. The caller's conflictColors slice is not modified.
func recolorOnce(step Step, x int, conflictColors []int) int {
	fam, err := field.Families(step.Q, step.D)
	if err != nil {
		panic(fmt.Sprintf("recolor: invalid step %+v: %v", step, err))
	}
	b := fam.Block(-1)
	var sc stepScratch
	sc.grow(step.Q)
	conflicts := append([]int(nil), conflictColors...)
	return sc.recolorOnce(&b, x, conflicts, nil)
}

// Result reports a whole-graph recoloring run.
type Result struct {
	Colors   []int
	Schedule Schedule
	Rounds   int
	Messages int64
	// Wall and PeakLive attribute the engine run host-side (see
	// dist.Result); Wall is not deterministic.
	Wall     time.Duration
	PeakLive int
}

// RunUniform executes the recoloring program with the uniform
// parameters p on the label/active-filtered subgraphs, writing each
// vertex's final color into dst (length n; inactive vertices report 0).
// parentPorts - per vertex, aligned with its visible ports under the
// same filters - selects the arbdefective variant when non-nil. The
// returned RunStats carries the LOCAL cost plus the engine run's wall
// time and peak live-set size for phase attribution.
func RunUniform(net *dist.Network, p Params, parentPorts [][]bool, labels []int, active []bool, dst []int) (dist.RunStats, error) {
	g := net.Graph()
	n := g.N()
	if len(dst) != n {
		return dist.RunStats{}, fmt.Errorf("recolor: %d color slots for %d vertices", len(dst), n)
	}
	algo, err := NewAlgo(p, parentPorts != nil)
	if err != nil {
		return dist.RunStats{}, err
	}
	algo.bindSession(net)
	var inWords []int64
	if parentPorts != nil {
		// Parent flags in the engine's per-port layout, filled in
		// parallel against the session's cached topology.
		inWords = net.PortColumn(labels, active, func(v int, ports []int, out []int64) {
			flags := parentPorts[v]
			for i := range ports {
				if i < len(flags) && flags[i] {
					out[i] = 1
				}
			}
		})
	}
	res, err := net.Run(algo, dist.RunOptions{InputWords: inWords, Labels: labels, Active: active})
	if err != nil {
		return dist.RunStats{}, err
	}
	if err := dist.IntsFromWords(res, dst); err != nil {
		return dist.RunStats{}, err
	}
	return res.Stats(), nil
}

// run executes the algorithm with uniform parameters on all vertices.
func run(net *dist.Network, p Params, parentPorts [][]bool) (Result, error) {
	plan := Plan(p.M0, p.DegBound, p.TargetDefect)
	if err := plan.Validate(); err != nil {
		return Result{}, err
	}
	colors := make([]int, net.Graph().N())
	st, err := RunUniform(net, p, parentPorts, nil, nil, colors)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Colors:   colors,
		Schedule: plan,
		Rounds:   st.Rounds,
		Messages: st.Messages,
		Wall:     st.Wall,
		PeakLive: st.PeakLive,
	}, nil
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
// maximum out-degree of the given complete acyclic orientation (Section 5,
// Algorithm Arb-Kuhn). Each color class, with edges oriented as in sigma,
// has out-degree at most d, certifying arboricity at most d (Lemma 2.5).
// The orientation itself is typically produced by Lemma 2.4 in O(log n)
// rounds; this routine adds only O(log* n) rounds.
func ArbKuhn(net *dist.Network, sigma *graph.Orientation, d int) (Result, error) {
	if d < 0 {
		return Result{}, fmt.Errorf("recolor: negative arbdefect target %d", d)
	}
	g := net.Graph()
	if sigma.Graph() != g {
		return Result{}, fmt.Errorf("recolor: orientation is over a different graph")
	}
	parentPorts := ParentPortFlags(g, sigma)
	return run(net, Params{
		Color:        -1,
		M0:           g.N(),
		DegBound:     sigma.MaxOutDegree(),
		TargetDefect: d,
	}, parentPorts)
}

// ParentPortFlags encodes, for each vertex, which of its ports lead to
// parents under sigma. This is the distributed knowledge each node holds
// after an orientation has been computed.
func ParentPortFlags(g *graph.Graph, sigma *graph.Orientation) [][]bool {
	out := make([][]bool, g.N())
	for v := 0; v < g.N(); v++ {
		flags := make([]bool, len(g.Neighbors(v)))
		for p := range flags {
			flags[p] = sigma.IsParentPort(v, p)
		}
		out[v] = flags
	}
	return out
}
