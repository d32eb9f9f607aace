package distcolor

import (
	"fmt"
	"math/rand"

	"repro/internal/arbdefect"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/deltacolor"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/orient"
	"repro/internal/recolor"
)

// Options control the simulated LOCAL execution.
type Options struct {
	// Seed drives identifier permutation (and nothing else for the
	// deterministic algorithms).
	Seed int64
	// PermuteIDs assigns identifiers by a random permutation instead of
	// the canonical id(v) = v+1, stressing ID-dependent symmetry breaking.
	PermuteIDs bool
	// EpsNum/EpsDen set the H-partition slack eps = EpsNum/EpsDen
	// (default 1/4).
	EpsNum, EpsDen int
	// FaithfulLemma33, when set, uses the (Delta+1) level coloring inside
	// the final Complete-Orientation (exact Lemma 3.3 length bound) at a
	// higher round cost; otherwise the Linial level coloring is used,
	// which preserves all theorem-level round bounds: the final subgraphs
	// have arboricity at most p, and the O(p^2 log n) orientation length
	// this gives fits each theorem's choice of p (core.Config).
	FaithfulLemma33 bool
}

func (o Options) network(g *Graph) *dist.Network {
	if o.PermuteIDs {
		return dist.NewNetworkPermuted(g, rand.New(rand.NewSource(o.Seed)))
	}
	return dist.NewNetwork(g)
}

func (o Options) eps() forest.Eps {
	if o.EpsNum > 0 && o.EpsDen > 0 {
		return forest.Eps{Num: o.EpsNum, Den: o.EpsDen}
	}
	return forest.DefaultEps
}

func (o Options) levelColoring() orient.LevelColoring {
	if o.FaithfulLemma33 {
		return orient.LevelDeltaPlusOne
	}
	return orient.LevelLinial
}

// Result reports a coloring computation.
type Result struct {
	// Colors assigns each vertex a color; the coloring is legal.
	Colors []int
	// NumColors is the number of distinct colors used.
	NumColors int
	// Palette bounds color values (colors lie in [0, Palette)).
	Palette int
	// Rounds is the total simulated LOCAL rounds (the paper's measure).
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int64
	// Phases itemizes rounds per pipeline phase.
	Phases []dist.PhaseStat
}

func newResult(colors []int, palette int, tally *dist.Tally) *Result {
	return &Result{
		Colors:    colors,
		NumColors: NumColors(colors),
		Palette:   palette,
		Rounds:    tally.Rounds(),
		Messages:  tally.Messages(),
		Phases:    tally.Phases(),
	}
}

// ColorOA computes an O(a)-coloring of a graph with arboricity at most a
// in O(a^mu log n) rounds (Theorem 4.3). mu in (0, 1]; smaller mu means
// fewer rounds... larger p. Typical choice: mu = 2/3.
func ColorOA(g *Graph, a int, mu float64, opts Options) (*Result, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	res, err := core.LegalColoring(net, core.Config{
		Arboricity:    a,
		P:             core.PForTheorem43(a, mu),
		Eps:           opts.eps(),
		LevelColoring: opts.levelColoring(),
	})
	if err != nil {
		return nil, err
	}
	return newResult(res.Colors, res.Palette, res.Tally), nil
}

// ColorTradeoff runs Procedure Legal-Coloring with an explicit refinement
// parameter p >= 4, exposing the full color/time tradeoff curve of
// Theorem 4.5 (small p: a^(1+o(1)) colors, more iterations) and
// Corollary 4.6 (p = 2^O(1/eta): O(a^(1+eta)) colors in O(log a log n)
// rounds).
func ColorTradeoff(g *Graph, a, p int, opts Options) (*Result, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	res, err := core.LegalColoring(net, core.Config{
		Arboricity:    a,
		P:             p,
		Eps:           opts.eps(),
		LevelColoring: opts.levelColoring(),
	})
	if err != nil {
		return nil, err
	}
	return newResult(res.Colors, res.Palette, res.Tally), nil
}

// OneShot implements Lemma 4.1: O(a) colors in O(a^(2/3) log n) rounds via
// a single arbdefective refinement.
func OneShot(g *Graph, a int, opts Options) (*Result, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	res, err := core.OneShot(net, a, opts.eps())
	if err != nil {
		return nil, err
	}
	return newResult(res.Colors, res.Palette, res.Tally), nil
}

// ColorFast implements Theorem 5.2: an O(a^2/gBudget)-coloring in
// O(log gBudget log n) rounds, trading colors for speed.
func ColorFast(g *Graph, a, gBudget int, opts Options) (*Result, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	res, err := core.FastColoring(net, a, gBudget, opts.eps())
	if err != nil {
		return nil, err
	}
	return newResult(res.Colors, res.Palette, res.Tally), nil
}

// ColorAT implements Theorem 5.3: an O(a*t)-coloring in
// O((a/t)^mu log n) rounds.
func ColorAT(g *Graph, a, t int, mu float64, opts Options) (*Result, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	res, err := core.ColorAT(net, a, t, mu, opts.eps())
	if err != nil {
		return nil, err
	}
	return newResult(res.Colors, res.Palette, res.Tally), nil
}

// MISResult reports a maximal-independent-set computation.
type MISResult struct {
	InMIS  []bool
	Size   int
	Rounds int
	Phases []dist.PhaseStat
}

// MIS computes a maximal independent set on a graph of arboricity at most
// a in O(a + a^mu log n) rounds (Section 1.2): Legal-Coloring followed by
// a class-by-class sweep.
func MIS(g *Graph, a int, mu float64, opts Options) (*MISResult, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	// The MIS sweep costs one round per palette value, so apply the
	// paper's small-a rule (Theorem 4.3 proof: wlog p >= 16, otherwise
	// color directly via Lemma 2.2): clamping p keeps the palette near
	// theta(a)+1 instead of paying the (3+eps)^iterations value blow-up.
	p := core.PForTheorem43(a, mu)
	if p < 16 {
		p = 16
	}
	mres, tally, err := core.MIS(net, core.Config{
		Arboricity:    a,
		P:             p,
		Eps:           opts.eps(),
		LevelColoring: opts.levelColoring(),
	})
	if err != nil {
		return nil, err
	}
	size := 0
	for _, in := range mres.InMIS {
		if in {
			size++
		}
	}
	return &MISResult{InMIS: mres.InMIS, Size: size, Rounds: tally.Rounds(), Phases: tally.Phases()}, nil
}

// ArbDefectiveResult reports an arbdefective coloring (Definition 2.1).
type ArbDefectiveResult struct {
	Colors []int
	// Bound is the guaranteed arbdefect: every color class induces a
	// subgraph of arboricity at most Bound.
	Bound  int
	Rounds int
}

// ArbDefective computes a floor(a/t + (2+eps)a/k)-arbdefective k-coloring
// in O(t^2 log n) rounds (Corollary 3.6) - the paper's new decomposition
// primitive.
func ArbDefective(g *Graph, a, k, t int, opts Options) (*ArbDefectiveResult, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	res, err := arbdefect.Coloring(net, a, k, t, opts.eps(), nil, nil)
	if err != nil {
		return nil, err
	}
	return &ArbDefectiveResult{Colors: res.Colors, Bound: res.Bound, Rounds: res.Tally.Rounds()}, nil
}

// OrientResult reports a (partial) orientation computation.
type OrientResult struct {
	Sigma     *Orientation
	OutDegree int
	Deficit   int
	Length    int
	Rounds    int
}

// PartialOrient computes Theorem 3.5's acyclic partial orientation:
// out-degree floor((2+eps)a), deficit <= floor(a/t), length O(t^2 log n),
// in O(log n) rounds.
func PartialOrient(g *Graph, a, t int, opts Options) (*OrientResult, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	res, err := orient.Partial(net, a, t, opts.eps(), nil, nil)
	if err != nil {
		return nil, err
	}
	return newOrientResult(net, res), nil
}

// newOrientResult assembles an orientation computed on net for return.
func newOrientResult(net *dist.Network, res *orient.Result) *OrientResult {
	sigma := res.Orient.Orientation(net)
	s := orient.MeasureWithin(sigma, nil, nil)
	return &OrientResult{
		Sigma:     sigma,
		OutDegree: s.OutDegree,
		Deficit:   s.Deficit,
		Length:    s.Length,
		Rounds:    res.Tally.Rounds(),
	}
}

// CompleteOrient computes Lemma 3.3's complete acyclic orientation with
// out-degree floor((2+eps)a).
func CompleteOrient(g *Graph, a int, opts Options) (*OrientResult, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	res, err := orient.Complete(net, a, opts.eps(), opts.levelColoring(), nil, nil)
	if err != nil {
		return nil, err
	}
	return newOrientResult(net, res), nil
}

// HPartitionResult reports the Lemma 2.3 decomposition.
type HPartitionResult struct {
	Level     []int
	NumLevels int
	Degree    int
	Rounds    int
}

// HPartition computes the H-partition of Lemma 2.3 in O(log n) rounds.
func HPartition(g *Graph, a int, opts Options) (*HPartitionResult, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	hp, err := forest.ComputeHPartition(net, a, opts.eps(), nil, nil)
	if err != nil {
		return nil, err
	}
	return &HPartitionResult{Level: hp.Level, NumLevels: hp.NumLevels, Degree: hp.Degree, Rounds: hp.Rounds}, nil
}

// ForestsResult reports the Lemma 2.2(2) decomposition.
type ForestsResult struct {
	// ForestOf maps each edge (min,max endpoints) to its forest index.
	ForestOf   map[[2]int]int
	NumForests int
	Rounds     int
}

// Forests computes an O(a)-forests decomposition in O(log n) rounds
// (Lemma 2.2(2)).
func Forests(g *Graph, a int, opts Options) (*ForestsResult, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	fd, err := forest.Decompose(net, a, opts.eps())
	if err != nil {
		return nil, err
	}
	return &ForestsResult{ForestOf: fd.ForestOf, NumForests: fd.NumForests, Rounds: fd.Tally.Rounds()}, nil
}

// EstimateArboricity returns an arboricity bound found by doubling search
// (at most ~2x the degeneracy), for callers without a priori knowledge.
func EstimateArboricity(g *Graph, opts Options) (int, error) {
	if err := guard(g); err != nil {
		return 0, err
	}
	net := opts.network(g)
	a, _, _, err := forest.EstimateArboricity(net, opts.eps())
	return a, err
}

// Baselines from the paper's related-work section.

// Linial computes the classical O(Delta^2)-coloring in O(log* n) rounds
// (Linial FOCS'87) - the bound the paper's main theorem beats.
func Linial(g *Graph, opts Options) (*Result, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	var tally dist.Tally
	res, err := recolor.Linial(opts.network(g).WithPhase(&tally, "linial"))
	if err != nil {
		return nil, err
	}
	return newResult(res.Colors, res.Schedule.FinalColors(), &tally), nil
}

// Defective computes a floor(Delta/p)-defective O(p^2)-coloring in
// O(log* n) rounds (Lemma 2.1 / Kuhn SPAA'09).
func Defective(g *Graph, p int, opts Options) (*Result, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	var tally dist.Tally
	res, err := recolor.Defective(opts.network(g).WithPhase(&tally, "defective"), p)
	if err != nil {
		return nil, err
	}
	return newResult(res.Colors, res.Schedule.FinalColors(), &tally), nil
}

// DeltaPlusOne computes a (Delta+1)-coloring in rounds linear in Delta
// (Barenboim-Elkin STOC'09 / Kuhn SPAA'09 [5, 17]).
func DeltaPlusOne(g *Graph, opts Options) (*Result, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	res, err := deltacolor.ColorDeltaPlusOne(net)
	if err != nil {
		return nil, err
	}
	return newResult(res.Colors, res.Palette, res.Tally), nil
}

// BE08 computes the previous state-of-the-art O(a)-coloring in O(a log n)
// rounds (Barenboim-Elkin PODC'08, Lemma 2.2(1)).
func BE08(g *Graph, a int, opts Options) (*Result, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	res, err := baseline.BE08Coloring(net, a, opts.eps())
	if err != nil {
		return nil, err
	}
	return newResult(res.Colors, res.Palette, res.Tally), nil
}

// LubyMIS computes a maximal independent set with Luby's randomized
// algorithm in O(log n) rounds w.h.p. (Luby'86 / Alon-Babai-Itai'86).
func LubyMIS(g *Graph, opts Options) (*MISResult, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	net := opts.network(g)
	res, err := baseline.LubyMIS(net, opts.Seed)
	if err != nil {
		return nil, err
	}
	size := 0
	for _, in := range res.InMIS {
		if in {
			size++
		}
	}
	return &MISResult{InMIS: res.InMIS, Size: size, Rounds: res.Rounds}, nil
}

// RandomizedColoring computes a (Delta+1)-coloring by random trials in
// O(log n) rounds w.h.p. (Johansson-style).
func RandomizedColoring(g *Graph, opts Options) (*Result, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	var tally dist.Tally
	res, err := baseline.RandomizedColoring(opts.network(g).WithPhase(&tally, "randcolor"), opts.Seed)
	if err != nil {
		return nil, err
	}
	return newResult(res.Colors, g.MaxDegree()+1, &tally), nil
}

// ColeVishkinForest 3-colors a rooted forest in O(log* n) rounds
// (Cole-Vishkin'86). parentOf[v] is v's parent or -1 for roots.
func ColeVishkinForest(g *Graph, parentOf []int, opts Options) (*Result, error) {
	if err := guard(g); err != nil {
		return nil, err
	}
	var tally dist.Tally
	res, err := baseline.ColeVishkinForest(opts.network(g).WithPhase(&tally, "cole-vishkin"), parentOf)
	if err != nil {
		return nil, err
	}
	return newResult(res.Colors, 3, &tally), nil
}

// VerifyLegal checks that colors is a legal coloring of g.
func VerifyLegal(g *Graph, colors []int) error { return g.CheckLegalColoring(colors) }

// VerifyMIS checks that inMIS is a maximal independent set of g.
func VerifyMIS(g *Graph, inMIS []bool) error { return g.CheckMIS(inMIS) }

// VerifyArbDefective checks an r-arbdefective coloring via per-class
// degeneracy (a sufficient certificate: arboricity <= degeneracy).
func VerifyArbDefective(g *Graph, colors []int, r int) error {
	return g.CheckArbdefectiveColoring(colors, r)
}

var errNil = fmt.Errorf("distcolor: nil graph")

// guard is shared validation for exported entry points.
func guard(g *Graph) error {
	if g == nil {
		return errNil
	}
	return nil
}
