package core

import (
	"fmt"
	"math"

	"repro/internal/arbdefect"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/orient"
	"repro/internal/recolor"
)

// PForTheorem43 returns p = ceil(a^(mu/2)) clamped to [4, inf): with this
// parameter Legal-Coloring produces an O(a)-coloring in O(a^mu log n)
// rounds (Theorem 4.3).
func PForTheorem43(a int, mu float64) int {
	p := int(math.Ceil(math.Pow(float64(a), mu/2)))
	if p < 4 {
		p = 4
	}
	return p
}

// PForCorollary46 returns p = 2^ceil(1/eta), the constant parameter giving
// an O(a^(1+eta))-coloring in O(log a log n) rounds (Corollary 4.6).
func PForCorollary46(eta float64) int {
	if eta <= 0 || eta >= 1 {
		return 4
	}
	e := int(math.Ceil(1 / eta))
	if e > 20 {
		e = 20
	}
	p := 1 << e
	if p < 4 {
		p = 4
	}
	return p
}

// PForTheorem45 returns p = ceil(sqrt(f)) clamped to [4, inf) for a
// slow-growing budget f = f(a): Legal-Coloring then runs in
// O(f log a log n) rounds with a^(1+O(1/log f)) colors (Theorem 4.5).
func PForTheorem45(f int) int {
	p := int(math.Ceil(math.Sqrt(float64(f))))
	if p < 4 {
		p = 4
	}
	return p
}

// ColorOA computes an O(a)-coloring of a graph with arboricity at most a
// in O(a^mu log n) rounds (Theorem 4.3).
func ColorOA(net *dist.Network, a int, mu float64) (*Result, error) {
	return LegalColoring(net, Config{Arboricity: a, P: PForTheorem43(a, mu)})
}

// OneShot implements Lemma 4.1: a single Arbdefective-Coloring invocation
// with k = t = ceil(a^(1/3)), followed by legal coloring of the classes
// with disjoint palettes. O(a)-coloring in O(a^(2/3) log n) rounds.
func OneShot(net *dist.Network, a int, eps forest.Eps) (*Result, error) {
	if a < 1 {
		return nil, fmt.Errorf("core: arboricity bound must be >= 1, got %d", a)
	}
	if eps == (forest.Eps{}) {
		eps = forest.DefaultEps
	}
	g := net.Graph()
	n := g.N()
	kt := int(math.Ceil(math.Cbrt(float64(a))))
	if kt < 1 {
		kt = 1
	}
	var tally dist.Tally
	ad, err := arbdefect.Coloring(net, a, kt, kt, eps, nil, nil)
	if err != nil {
		return nil, err
	}
	tally.Merge(ad.Tally)
	alpha := ad.Bound
	if alpha < 1 {
		alpha = 1
	}
	gamma := eps.Threshold(alpha) + 1
	co, err := orient.Complete(net, alpha, eps, orient.LevelLinial, ad.Colors, nil)
	if err != nil {
		return nil, err
	}
	tally.Merge(co.Tally)
	net.Probe().SetPhase("core/final-greedy")
	wc, err := forest.WaitColor(net, co.Orient, gamma, forest.RuleFirstFree)
	if err != nil {
		return nil, err
	}
	tally.AddStats("final-greedy", wc.RunStats)
	colors := make([]int, n)
	for v := 0; v < n; v++ {
		colors[v] = ad.Colors[v]*gamma + wc.Colors[v]
	}
	return &Result{
		Colors:          colors,
		Palette:         kt * gamma,
		Iterations:      1,
		FinalArboricity: ad.Bound,
		Tally:           &tally,
	}, nil
}

// FastResult reports a two-phase (Section 5) coloring.
type FastResult struct {
	Colors []int
	// Palette bounds color values: classes * per-class palette.
	Palette int
	Tally   *dist.Tally
}

// twoPhase runs Arb-Kuhn with arbdefect target d, then Legal-Coloring in
// parallel on the resulting classes (arboricity <= d each) with refinement
// parameter p and disjoint palettes.
func twoPhase(net *dist.Network, a, d, p int, eps forest.Eps) (*FastResult, error) {
	if eps == (forest.Eps{}) {
		eps = forest.DefaultEps
	}
	var tally dist.Tally
	net.Probe().SetPhase("core/complete-orientation")
	or, _, err := forest.CompleteAcyclicOrientation(net, a, eps)
	if err != nil {
		return nil, err
	}
	tally.AddStats("complete-orientation", or.RunStats)
	net.Probe().SetPhase("core/arb-recolor")
	kres, err := recolor.ArbKuhn(net, or.Dirs, or.OutDegree, d)
	if err != nil {
		return nil, err
	}
	tally.AddStats("arb-recolor", kres.RunStats)

	alpha := d
	if alpha < 1 {
		alpha = 1
	}
	lc, err := LegalColoring(net, Config{
		Arboricity: alpha,
		P:          p,
		Eps:        eps,
		Labels:     kres.Colors,
	})
	if err != nil {
		return nil, err
	}
	tally.Merge(lc.Tally)
	return &FastResult{
		Colors:  lc.Colors,
		Palette: lc.Palette,
		Tally:   &tally,
	}, nil
}

// FastColoring implements Theorem 5.2: an O(a^2/g)-coloring in
// O(log g log n) rounds, for a defect budget g = g(a) in [1, a].
func FastColoring(net *dist.Network, a, g int, eps forest.Eps) (*FastResult, error) {
	if g < 1 || g > a {
		return nil, fmt.Errorf("core: g must be in [1, a], got %d (a=%d)", g, a)
	}
	// Arb-Kuhn splits into O((a/g)^-2... classes of arboricity <= g); the
	// per-class Legal-Coloring uses a constant p (Corollary 4.6 regime) so
	// each class gets O(g^(1+eta)) colors.
	return twoPhase(net, a, g, 16, eps)
}

// ColorAT implements Theorem 5.3: an O(a*t)-coloring in O((a/t)^mu log n)
// rounds, for t in [1, a].
func ColorAT(net *dist.Network, a, t int, mu float64, eps forest.Eps) (*FastResult, error) {
	if t < 1 || t > a {
		return nil, fmt.Errorf("core: t must be in [1, a], got %d (a=%d)", t, a)
	}
	d := a / t
	return twoPhase(net, a, d, PForTheorem43(max(d, 1), mu), eps)
}
