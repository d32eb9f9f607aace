// Package experiments implements the reproduction harness: one function
// per experiment (E01-E19 here, the ablations E20-E22 in ablation.go),
// each regenerating the quantity a theorem or comparison claim of the
// paper bounds. Rows report measured values side by side with the paper's
// predicted bound so that cmd/colorbench can print the whole claim table
// mechanically and each experiment can run as a Go benchmark
// (bench_test.go).
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/arbdefect"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/orient"
	"repro/internal/recolor"
)

// Row is one measurement of an experiment.
type Row struct {
	Exp      string  // experiment id, e.g. "E07"
	Workload string  // workload description
	Params   string  // swept parameters
	Colors   int     // colors used (0 when not applicable)
	Rounds   int     // simulated LOCAL rounds
	Messages int64   // messages sent across the run
	Measured float64 // the quantity the claim bounds (see Metric)
	Bound    float64 // the claim's bound on Measured (0 = n/a)
	Metric   string  // name of the Measured quantity
	OK       bool    // Measured <= Bound (when Bound > 0), plus validity checks
	Note     string
}

// Table renders rows as an aligned text table (markdown-compatible).
func Table(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| %-4s | %-26s | %-22s | %7s | %7s | %9s | %10s | %10s | %-16s | %-4s |\n",
		"exp", "workload", "params", "colors", "rounds", "messages", "measured", "bound", "metric", "ok")
	fmt.Fprintf(&b, "|------|----------------------------|------------------------|---------|---------|-----------|------------|------------|------------------|------|\n")
	for _, r := range rows {
		ok := "yes"
		if !r.OK {
			ok = "NO"
		}
		bound := "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.1f", r.Bound)
		}
		fmt.Fprintf(&b, "| %-4s | %-26s | %-22s | %7d | %7d | %9d | %10.1f | %10s | %-16s | %-4s |\n",
			r.Exp, r.Workload, r.Params, r.Colors, r.Rounds, r.Messages, r.Measured, bound, r.Metric, ok)
	}
	return b.String()
}

// Sizes configures the scale of the whole suite.
type Sizes struct {
	N    int   // default vertex count
	Seed int64 // base RNG seed
}

// DefaultSizes are laptop-scale defaults used by cmd/colorbench.
var DefaultSizes = Sizes{N: 2000, Seed: 1}

func (s Sizes) rng(off int64) *rand.Rand {
	return rand.New(rand.NewSource(s.Seed + off))
}

func (s Sizes) forestNet(a int, off int64) (*graph.Graph, *dist.Network) {
	rng := s.rng(off)
	g := graph.ForestUnion(s.N, a, rng)
	return g, dist.NewNetworkPermuted(g, rng)
}

func logN(n int) float64 { return math.Log2(float64(n)) }

// E01HPartition verifies Lemma 2.3: levels = O(log n), degree bound
// floor((2+eps)a).
func E01HPartition(s Sizes) ([]Row, error) {
	var rows []Row
	for _, a := range []int{2, 4, 8, 16} {
		g, net := s.forestNet(a, int64(a))
		hp, err := forest.ComputeHPartition(net, a, forest.DefaultEps, nil, nil)
		if err != nil {
			return nil, err
		}
		maxUp := 0
		for v := 0; v < g.N(); v++ {
			cnt := 0
			for _, u := range g.Neighbors(v) {
				if hp.Level[u] >= hp.Level[v] {
					cnt++
				}
			}
			if cnt > maxUp {
				maxUp = cnt
			}
		}
		rows = append(rows, Row{
			Exp: "E01", Workload: fmt.Sprintf("forest-union n=%d", g.N()),
			Params: fmt.Sprintf("a=%d", a), Rounds: hp.Rounds, Messages: hp.Messages,
			Measured: float64(maxUp), Bound: float64(hp.Degree),
			Metric: "up-degree", OK: maxUp <= hp.Degree,
			Note: fmt.Sprintf("levels=%d (log n=%.0f)", hp.NumLevels, logN(g.N())),
		})
	}
	return rows, nil
}

// E02Forests verifies Lemma 2.2(2): <= floor((2+eps)a) forests, each
// acyclic, covering all edges, in O(log n) rounds.
func E02Forests(s Sizes) ([]Row, error) {
	var rows []Row
	for _, a := range []int{2, 4, 8} {
		g, net := s.forestNet(a, 100+int64(a))
		fd, err := forest.Decompose(net, a, forest.DefaultEps)
		if err != nil {
			return nil, err
		}
		ok := fd.Validate() == nil
		rows = append(rows, Row{
			Exp: "E02", Workload: fmt.Sprintf("forest-union n=%d", g.N()),
			Params: fmt.Sprintf("a=%d", a), Rounds: fd.Rounds, Messages: fd.Messages,
			Measured: float64(fd.NumForests), Bound: float64(forest.DefaultEps.Threshold(a)),
			Metric: "num-forests", OK: ok && fd.NumForests <= forest.DefaultEps.Threshold(a),
		})
	}
	return rows, nil
}

// E03BE08 verifies Lemma 2.2(1) as a baseline: legal
// (floor((2+eps)a)+1)-coloring in O(a log n) rounds.
func E03BE08(s Sizes) ([]Row, error) {
	var rows []Row
	for _, a := range []int{2, 4, 8} {
		g, net := s.forestNet(a, 200+int64(a))
		res, err := baseline.BE08Coloring(net, a, forest.DefaultEps)
		if err != nil {
			return nil, err
		}
		ok := g.CheckLegalColoring(res.Colors) == nil
		rows = append(rows, Row{
			Exp: "E03", Workload: fmt.Sprintf("forest-union n=%d", g.N()),
			Params: fmt.Sprintf("a=%d", a), Colors: graph.NumColors(res.Colors),
			Rounds:   res.Tally.Rounds(),
			Messages: res.Tally.Messages(),
			Measured: float64(graph.MaxColor(res.Colors) + 1), Bound: float64(res.Palette),
			Metric: "palette", OK: ok && graph.MaxColor(res.Colors) < res.Palette,
			Note: fmt.Sprintf("a*log n=%.0f", float64(a)*logN(g.N())),
		})
	}
	return rows, nil
}

// E04Linial verifies the Linial baseline: O(Delta^2) colors in
// <= log* n + O(1) rounds.
func E04Linial(s Sizes) ([]Row, error) {
	var rows []Row
	for _, d := range []int{4, 8, 16} {
		rng := s.rng(300 + int64(d))
		g := graph.RandomRegularish(s.N, d, rng)
		net := dist.NewNetworkPermuted(g, rng)
		res, err := recolor.Linial(net)
		if err != nil {
			return nil, err
		}
		delta := g.MaxDegree()
		ok := g.CheckLegalColoring(res.Colors) == nil
		bound := math.Min(float64(8*delta*delta+1), float64(g.N()))
		rows = append(rows, Row{
			Exp: "E04", Workload: fmt.Sprintf("regular n=%d", g.N()),
			Params: fmt.Sprintf("Delta=%d", delta), Colors: graph.NumColors(res.Colors),
			Rounds:   res.Rounds,
			Messages: res.Messages,
			Measured: float64(graph.MaxColor(res.Colors) + 1), Bound: bound,
			Metric: "colors vs 8D^2", OK: ok && float64(graph.MaxColor(res.Colors)+1) <= bound,
			Note: fmt.Sprintf("log* n=%d", graph.LogStar(g.N())),
		})
	}
	return rows, nil
}

// E05Defective verifies Lemma 2.1: floor(Delta/p)-defective O(p^2) colors
// in O(log* n) rounds.
func E05Defective(s Sizes) ([]Row, error) {
	var rows []Row
	for _, p := range []int{2, 4, 8} {
		rng := s.rng(400 + int64(p))
		g := graph.RandomRegularish(s.N, 24, rng)
		net := dist.NewNetworkPermuted(g, rng)
		res, err := recolor.Defective(net, p)
		if err != nil {
			return nil, err
		}
		delta := g.MaxDegree()
		def := g.Defect(res.Colors)
		rows = append(rows, Row{
			Exp: "E05", Workload: fmt.Sprintf("regular n=%d Delta=%d", g.N(), delta),
			Params: fmt.Sprintf("p=%d", p), Colors: graph.NumColors(res.Colors),
			Rounds:   res.Rounds,
			Messages: res.Messages,
			Measured: float64(def), Bound: float64(delta / p),
			Metric: "defect", OK: def <= delta/p && graph.NumColors(res.Colors) <= 16*p*p+26,
			Note: fmt.Sprintf("colors<=16p^2+26=%d", 16*p*p+26),
		})
	}
	return rows, nil
}

// E06CompleteOrientation verifies Lemma 3.3: complete acyclic orientation,
// out-degree floor((2+eps)a), length O(a log n) with (Delta+1) levels.
func E06CompleteOrientation(s Sizes) ([]Row, error) {
	var rows []Row
	for _, a := range []int{2, 4, 8} {
		g, net := s.forestNet(a, 500+int64(a))
		res, err := orient.Complete(net, a, forest.DefaultEps, orient.LevelDeltaPlusOne, nil, nil)
		if err != nil {
			return nil, err
		}
		st := orient.MeasureWithin(res.Orient.Orientation(net), nil, nil)
		lengthBound := float64(res.HP.NumLevels * (res.LevelPalette + 1))
		rows = append(rows, Row{
			Exp: "E06", Workload: fmt.Sprintf("forest-union n=%d", g.N()),
			Params: fmt.Sprintf("a=%d", a), Rounds: res.Tally.Rounds(), Messages: res.Tally.Messages(),
			Measured: float64(st.Length), Bound: lengthBound,
			Metric: "orient-length",
			OK:     st.Acyclic && st.Deficit == 0 && st.OutDegree <= forest.DefaultEps.Threshold(a) && float64(st.Length) <= lengthBound,
			Note:   fmt.Sprintf("outdeg=%d<=%d", st.OutDegree, forest.DefaultEps.Threshold(a)),
		})
	}
	return rows, nil
}

// E07PartialOrientation verifies Theorem 3.5 (and Figure 1's structure):
// out-degree floor((2+eps)a), deficit <= floor(a/t), length O(t^2 log n).
func E07PartialOrientation(s Sizes) ([]Row, error) {
	var rows []Row
	a := 8
	for _, t := range []int{1, 2, 4, 8} {
		g, net := s.forestNet(a, 600+int64(t))
		res, err := orient.Partial(net, a, t, forest.DefaultEps, nil, nil)
		if err != nil {
			return nil, err
		}
		st := orient.MeasureWithin(res.Orient.Orientation(net), nil, nil)
		lengthBound := res.HP.NumLevels * (res.LevelPalette + 1)
		rows = append(rows, Row{
			Exp: "E07", Workload: fmt.Sprintf("forest-union n=%d a=%d", g.N(), a),
			Params: fmt.Sprintf("t=%d", t), Rounds: res.Tally.Rounds(), Messages: res.Tally.Messages(),
			Measured: float64(st.Deficit), Bound: math.Max(float64(a/t), 0.5),
			Metric: "deficit",
			OK: st.Acyclic && st.Deficit <= a/t && st.OutDegree <= forest.DefaultEps.Threshold(a) &&
				st.Length <= lengthBound,
			Note: fmt.Sprintf("len=%d<=levels*colors=%d", st.Length, lengthBound),
		})
	}
	return rows, nil
}

// E08SimpleArbdefective verifies Theorem 3.2: (tau+floor(m/k))-arbdefective
// k-coloring in len+1 rounds.
func E08SimpleArbdefective(s Sizes) ([]Row, error) {
	var rows []Row
	a := 8
	g, net := s.forestNet(a, 700)
	po, err := orient.Partial(net, a, 2, forest.DefaultEps, nil, nil)
	if err != nil {
		return nil, err
	}
	sigma := po.Orient.Orientation(net)
	st := orient.MeasureWithin(sigma, nil, nil)
	for _, k := range []int{2, 4, 8} {
		sr, err := arbdefect.Simple(net, po.Orient, k)
		if err != nil {
			return nil, err
		}
		witnessOK := g.CheckArbdefectWitness(sr.Colors, sigma, sr.Bound) == nil
		rows = append(rows, Row{
			Exp: "E08", Workload: fmt.Sprintf("forest-union n=%d a=%d", g.N(), a),
			Params: fmt.Sprintf("k=%d", k), Colors: graph.NumColors(sr.Colors),
			Rounds:   sr.Rounds,
			Messages: sr.Messages,
			Measured: float64(sr.Rounds), Bound: float64(st.Length + 1),
			Metric: "rounds vs len+1", OK: witnessOK && sr.Rounds <= st.Length+1,
			Note: fmt.Sprintf("arbdefect<=%d", sr.Bound),
		})
	}
	return rows, nil
}

// E09ArbdefectiveColoring verifies Corollary 3.6.
func E09ArbdefectiveColoring(s Sizes) ([]Row, error) {
	var rows []Row
	a := 8
	for _, kt := range []int{2, 4, 8} {
		g, net := s.forestNet(a, 800+int64(kt))
		res, err := arbdefect.Coloring(net, a, kt, kt, forest.DefaultEps, nil, nil)
		if err != nil {
			return nil, err
		}
		arbOK := g.CheckArbdefectWitness(res.Colors, res.Orient.Orientation(net), res.Bound) == nil
		rows = append(rows, Row{
			Exp: "E09", Workload: fmt.Sprintf("forest-union n=%d a=%d", g.N(), a),
			Params: fmt.Sprintf("k=t=%d", kt), Colors: graph.NumColors(res.Colors),
			Rounds:   res.Tally.Rounds(),
			Messages: res.Tally.Messages(),
			Measured: float64(res.Bound), Bound: float64(a/kt + forest.DefaultEps.Threshold(a)/kt),
			Metric: "arbdefect", OK: arbOK,
			Note: fmt.Sprintf("t^2*log n=%.0f", float64(kt*kt)*logN(g.N())),
		})
	}
	return rows, nil
}

// E10OneShot verifies Lemma 4.1.
func E10OneShot(s Sizes) ([]Row, error) {
	var rows []Row
	for _, a := range []int{8, 16, 32} {
		g, net := s.forestNet(a, 900+int64(a))
		res, err := core.OneShot(net, a, forest.DefaultEps)
		if err != nil {
			return nil, err
		}
		ok := g.CheckLegalColoring(res.Colors) == nil
		rows = append(rows, Row{
			Exp: "E10", Workload: fmt.Sprintf("forest-union n=%d", g.N()),
			Params: fmt.Sprintf("a=%d", a), Colors: graph.NumColors(res.Colors),
			Rounds:   res.Tally.Rounds(),
			Messages: res.Tally.Messages(),
			Measured: float64(res.Palette), Bound: 30*float64(a) + 60,
			Metric: "palette vs O(a)", OK: ok && float64(res.Palette) <= 30*float64(a)+60,
			Note: fmt.Sprintf("a^(2/3)*log n=%.0f", math.Pow(float64(a), 2.0/3.0)*logN(g.N())),
		})
	}
	return rows, nil
}

// E11LegalColoring verifies Theorem 4.3 / Corollary 4.4: O(a) colors,
// rounds tracking a^mu log n.
func E11LegalColoring(s Sizes) ([]Row, error) {
	var rows []Row
	for _, a := range []int{8, 16, 32} {
		g, net := s.forestNet(a, 1000+int64(a))
		res, err := core.LegalColoring(net, core.Config{Arboricity: a, P: core.PForTheorem43(a, 2.0/3.0)})
		if err != nil {
			return nil, err
		}
		ok := g.CheckLegalColoring(res.Colors) == nil
		// Lemma 4.2(3) bound: (3+eps)^(iters+1) * a + slack.
		bound := float64(a)
		for i := 0; i <= res.Iterations; i++ {
			bound *= 3.25
		}
		rows = append(rows, Row{
			Exp: "E11", Workload: fmt.Sprintf("forest-union n=%d", g.N()),
			Params: fmt.Sprintf("a=%d mu=2/3", a), Colors: graph.NumColors(res.Colors),
			Rounds:   res.Tally.Rounds(),
			Messages: res.Tally.Messages(),
			Measured: float64(res.Palette), Bound: bound + 100,
			Metric: "palette vs O(a)", OK: ok && float64(res.Palette) <= bound+100,
			Note: fmt.Sprintf("iters=%d a^(2/3)logn=%.0f", res.Iterations, math.Pow(float64(a), 2.0/3.0)*logN(g.N())),
		})
	}
	return rows, nil
}

// E12Tradeoff sweeps p (Theorem 4.5 / Corollary 4.6).
func E12Tradeoff(s Sizes) ([]Row, error) {
	var rows []Row
	a := 16
	for _, p := range []int{4, 8, 16} {
		g, net := s.forestNet(a, 1100+int64(p))
		res, err := core.LegalColoring(net, core.Config{Arboricity: a, P: p})
		if err != nil {
			return nil, err
		}
		ok := g.CheckLegalColoring(res.Colors) == nil
		rows = append(rows, Row{
			Exp: "E12", Workload: fmt.Sprintf("forest-union n=%d a=%d", g.N(), a),
			Params: fmt.Sprintf("p=%d", p), Colors: graph.NumColors(res.Colors),
			Rounds:   res.Tally.Rounds(),
			Messages: res.Tally.Messages(),
			Measured: float64(res.Iterations), Bound: math.Ceil(math.Log(float64(a))/math.Log(float64(p)/3.25)) + 1,
			Metric: "iterations", OK: ok,
		})
	}
	return rows, nil
}

// E13DeltaPlusOne verifies Corollary 4.7: in the a << Delta regime, fewer
// than Delta+1 colors.
func E13DeltaPlusOne(s Sizes) ([]Row, error) {
	var rows []Row
	for _, hubDeg := range []int{100, 300, 600} {
		rng := s.rng(1200 + int64(hubDeg))
		g := graph.StarForest(s.N, 2, 4, hubDeg, rng)
		net := dist.NewNetworkPermuted(g, rng)
		a := g.ArboricityUpperBound()
		res, err := core.LegalColoring(net, core.Config{Arboricity: a, P: 4})
		if err != nil {
			return nil, err
		}
		nc := graph.NumColors(res.Colors)
		ok := g.CheckLegalColoring(res.Colors) == nil && nc <= g.MaxDegree()
		rows = append(rows, Row{
			Exp: "E13", Workload: fmt.Sprintf("star-forest n=%d", g.N()),
			Params: fmt.Sprintf("a=%d Delta=%d", a, g.MaxDegree()), Colors: nc,
			Rounds:   res.Tally.Rounds(),
			Messages: res.Tally.Messages(),
			Measured: float64(nc), Bound: float64(g.MaxDegree() + 1),
			Metric: "colors vs Delta+1", OK: ok,
		})
	}
	return rows, nil
}

// E14ArbKuhn verifies the Section 5 Arb-Kuhn algorithm.
func E14ArbKuhn(s Sizes) ([]Row, error) {
	var rows []Row
	a := 16
	for _, t := range []int{2, 4, 8} {
		g, net := s.forestNet(a, 1300+int64(t))
		res, err := arbdefect.Kuhn(net, a, t, forest.DefaultEps)
		if err != nil {
			return nil, err
		}
		witnessOK := g.CheckArbdefectWitness(res.Colors, res.Orient.Orientation(net), res.Defect) == nil
		rows = append(rows, Row{
			Exp: "E14", Workload: fmt.Sprintf("forest-union n=%d a=%d", g.N(), a),
			Params: fmt.Sprintf("t=%d", t), Colors: graph.NumColors(res.Colors),
			Rounds:   res.Tally.Rounds(),
			Messages: res.Tally.Messages(),
			Measured: float64(res.Defect), Bound: float64(a / t),
			Metric: "arbdefect", OK: witnessOK && res.Defect <= a/t,
			Note: fmt.Sprintf("O(log n)=%.0f", logN(g.N())),
		})
	}
	return rows, nil
}

// E15FastColoring verifies Theorem 5.2.
func E15FastColoring(s Sizes) ([]Row, error) {
	var rows []Row
	a := 16
	for _, gb := range []int{2, 4, 8} {
		g, net := s.forestNet(a, 1400+int64(gb))
		res, err := core.FastColoring(net, a, gb, forest.DefaultEps)
		if err != nil {
			return nil, err
		}
		ok := g.CheckLegalColoring(res.Colors) == nil
		rows = append(rows, Row{
			Exp: "E15", Workload: fmt.Sprintf("forest-union n=%d a=%d", g.N(), a),
			Params: fmt.Sprintf("g=%d", gb), Colors: graph.NumColors(res.Colors),
			Rounds:   res.Tally.Rounds(),
			Messages: res.Tally.Messages(),
			Measured: float64(graph.NumColors(res.Colors)),
			Metric:   "colors (O(a^2/g))", OK: ok,
		})
	}
	return rows, nil
}

// E16ColorAT verifies Theorem 5.3.
func E16ColorAT(s Sizes) ([]Row, error) {
	var rows []Row
	a := 16
	for _, t := range []int{1, 2, 4} {
		g, net := s.forestNet(a, 1500+int64(t))
		res, err := core.ColorAT(net, a, t, 0.5, forest.DefaultEps)
		if err != nil {
			return nil, err
		}
		ok := g.CheckLegalColoring(res.Colors) == nil
		rows = append(rows, Row{
			Exp: "E16", Workload: fmt.Sprintf("forest-union n=%d a=%d", g.N(), a),
			Params: fmt.Sprintf("t=%d", t), Colors: graph.NumColors(res.Colors),
			Rounds:   res.Tally.Rounds(),
			Messages: res.Tally.Messages(),
			Measured: float64(graph.NumColors(res.Colors)),
			Metric:   "colors (O(a*t))", OK: ok,
		})
	}
	return rows, nil
}

// E17MIS compares the deterministic MIS (Section 1.2) with Luby's.
func E17MIS(s Sizes) ([]Row, error) {
	var rows []Row
	for _, a := range []int{4, 16} {
		g, net := s.forestNet(a, 1600+int64(a))
		// Paper's small-a rule: p >= 16 keeps the sweep palette near
		// theta(a)+1 (see Theorem 4.3's "wlog p >= 16").
		mres, tally, err := core.MIS(net, core.Config{Arboricity: a, P: max(16, core.PForTheorem43(a, 1.0))})
		if err != nil {
			return nil, err
		}
		ok := g.CheckMIS(mres.InMIS) == nil
		rows = append(rows, Row{
			Exp: "E17", Workload: fmt.Sprintf("forest-union n=%d", g.N()),
			Params: fmt.Sprintf("a=%d ours", a), Rounds: tally.Rounds(), Messages: tally.Messages(),
			Measured: float64(tally.Rounds()),
			Metric:   "rounds (O(a+a^mu logn))", OK: ok,
		})
		lres, err := baseline.LubyMIS(net, s.Seed)
		if err != nil {
			return nil, err
		}
		ok = g.CheckMIS(lres.InMIS) == nil
		rows = append(rows, Row{
			Exp: "E17", Workload: fmt.Sprintf("forest-union n=%d", g.N()),
			Params: fmt.Sprintf("a=%d luby", a), Rounds: lres.Rounds, Messages: lres.Messages,
			Measured: float64(lres.Rounds),
			Metric:   "rounds (O(log n) rand)", OK: ok,
		})
	}
	return rows, nil
}

// E18StateOfTheArt regenerates the Section 1.2 comparison: fixed small a,
// growing Delta; ours stays O(a) colors while Linial pays Delta^2.
func E18StateOfTheArt(s Sizes) ([]Row, error) {
	var rows []Row
	for _, hubDeg := range []int{8, 16, 32} {
		rng := s.rng(1700 + int64(hubDeg))
		g := graph.StarForest(s.N, 2, 6, hubDeg, rng)
		net := dist.NewNetworkPermuted(g, rng)
		a := g.ArboricityUpperBound()
		delta := g.MaxDegree()

		ours, err := core.LegalColoring(net, core.Config{Arboricity: a, P: 4})
		if err != nil {
			return nil, err
		}
		lin, err := recolor.Linial(net)
		if err != nil {
			return nil, err
		}
		be, err := baseline.BE08Coloring(net, a, forest.DefaultEps)
		if err != nil {
			return nil, err
		}
		okAll := g.CheckLegalColoring(ours.Colors) == nil &&
			g.CheckLegalColoring(lin.Colors) == nil &&
			g.CheckLegalColoring(be.Colors) == nil
		rows = append(rows, Row{
			Exp: "E18", Workload: fmt.Sprintf("star-forest n=%d a=%d", g.N(), a),
			Params: fmt.Sprintf("Delta=%d", delta),
			Colors: graph.NumColors(ours.Colors), Rounds: ours.Tally.Rounds(), Messages: ours.Tally.Messages(),
			Measured: float64(graph.NumColors(lin.Colors)),
			Bound:    float64(8*delta*delta + 1),
			Metric:   "linial-colors",
			OK:       okAll,
			Note: fmt.Sprintf("ours=%d lin=%d be08=%d(r=%d)",
				graph.NumColors(ours.Colors), graph.NumColors(lin.Colors),
				graph.NumColors(be.Colors), be.Tally.Rounds()),
		})
	}
	return rows, nil
}

// E19OrientationColoring verifies Appendix A: an (l+1)-coloring from a
// length-l complete acyclic orientation in l+1 rounds.
func E19OrientationColoring(s Sizes) ([]Row, error) {
	var rows []Row
	for _, a := range []int{2, 4} {
		g, net := s.forestNet(a, 1800+int64(a))
		or, _, err := forest.CompleteAcyclicOrientation(net, a, forest.DefaultEps)
		if err != nil {
			return nil, err
		}
		length, err := or.Orientation(net).Length()
		if err != nil {
			return nil, err
		}
		wc, err := forest.WaitColor(net, or, length+1, forest.RuleFirstFree)
		if err != nil {
			return nil, err
		}
		ok := g.CheckLegalColoring(wc.Colors) == nil
		rows = append(rows, Row{
			Exp: "E19", Workload: fmt.Sprintf("forest-union n=%d a=%d", g.N(), a),
			Params: fmt.Sprintf("len=%d", length), Colors: graph.NumColors(wc.Colors),
			Rounds:   wc.Rounds,
			Messages: wc.Messages,
			Measured: float64(wc.Rounds), Bound: float64(length + 1),
			Metric: "rounds vs len+1", OK: ok && wc.Rounds <= length+1,
		})
	}
	return rows, nil
}

// coreLegal is a small shared wrapper used by the ablations.
type legalOut struct {
	colors   []int
	rounds   int
	messages int64
}

func coreLegal(net *dist.Network, a int) (legalOut, error) {
	res, err := core.LegalColoring(net, core.Config{Arboricity: a, P: 4})
	if err != nil {
		return legalOut{}, err
	}
	return legalOut{colors: res.Colors, rounds: res.Tally.Rounds(), messages: res.Tally.Messages()}, nil
}

// All runs every experiment in List order.
func All(s Sizes) ([]Row, error) {
	var all []Row
	for _, exp := range List() {
		rows, err := exp.Fn(s)
		if err != nil {
			return all, err
		}
		all = append(all, rows...)
	}
	return all, nil
}
