package experiments

import (
	"fmt"

	"repro/internal/arbdefect"
	"repro/internal/baseline"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/orient"
)

// Ablation experiments: each isolates one design choice - a partial
// instead of a complete orientation (E20), coloring through an MIS of the
// product graph (E21), and independence from the identifier assignment
// (E22).

// E20AblationOrientation isolates the paper's Section 3 design choice:
// Corollary 3.4 (Simple-Arbdefective on a COMPLETE orientation, O(a log n)
// rounds because the orientation is long) versus Corollary 3.6 (the same
// coloring on Theorem 3.5's PARTIAL orientation, O(t^2 log n) rounds).
// The partial orientation trades a small deficit for a much shorter
// longest directed path - the heart of the paper's speedup.
func E20AblationOrientation(s Sizes) ([]Row, error) {
	var rows []Row
	a, k := 8, 4
	for _, variant := range []string{"complete(Cor3.4)", "partial(Cor3.6)"} {
		g, net := s.forestNet(a, 1900)
		var (
			res *orient.Result
			err error
		)
		if variant == "complete(Cor3.4)" {
			res, err = orient.Complete(net, a, forest.DefaultEps, orient.LevelDeltaPlusOne, nil, nil)
		} else {
			res, err = orient.Partial(net, a, k, forest.DefaultEps, nil, nil)
		}
		if err != nil {
			return nil, err
		}
		rounds, msgs := res.Tally.Rounds(), res.Tally.Messages()
		sr, err := arbdefect.Simple(net, res.Orient, k)
		if err != nil {
			return nil, err
		}
		sigma := res.Orient.Orientation(net)
		witnessOK := g.CheckArbdefectWitness(sr.Colors, sigma, sr.Bound) == nil
		st := orient.MeasureWithin(sigma, nil, nil)
		rows = append(rows, Row{
			Exp: "E20", Workload: fmt.Sprintf("forest-union n=%d a=%d", g.N(), a),
			Params: variant, Colors: graph.NumColors(sr.Colors),
			Rounds:   rounds + sr.Rounds,
			Messages: msgs + sr.Messages,
			Measured: float64(st.Length),
			Metric:   "orient-length", OK: witnessOK,
			Note: fmt.Sprintf("arbdefect<=%d deficit=%d", sr.Bound, st.Deficit),
		})
	}
	return rows, nil
}

// E21LinialReduction demonstrates the classical reduction of Section 1.1:
// an MIS algorithm yields a (Delta+1)-coloring on the product graph
// G x K_{Delta+1} within the MIS running time.
func E21LinialReduction(s Sizes) ([]Row, error) {
	var rows []Row
	rng := s.rng(2000)
	g := graph.RandomRegularish(s.N/4, 6, rng)
	res, err := baseline.LinialReductionColoring(g, s.Seed)
	if err != nil {
		return nil, err
	}
	delta := g.MaxDegree()
	ok := g.CheckLegalColoring(res.Colors) == nil && graph.MaxColor(res.Colors) <= delta
	rows = append(rows, Row{
		Exp: "E21", Workload: fmt.Sprintf("regular n=%d Delta=%d", g.N(), delta),
		Params: "MIS->(D+1) via product", Colors: graph.NumColors(res.Colors),
		Rounds:   res.Rounds,
		Messages: res.Messages,
		Measured: float64(graph.MaxColor(res.Colors) + 1), Bound: float64(delta + 1),
		Metric: "colors vs Delta+1", OK: ok,
		Note: fmt.Sprintf("product size=%d", g.N()*(delta+1)),
	})
	return rows, nil
}

// E22IDRobustness checks that the deterministic pipeline's guarantees are
// independent of the identifier assignment: canonical versus adversarially
// permuted IDs must both satisfy every bound (colors may differ; bounds
// may not).
func E22IDRobustness(s Sizes) ([]Row, error) {
	var rows []Row
	a := 8
	for _, perm := range []bool{false, true} {
		rng := s.rng(2100)
		g := graph.ForestUnion(s.N, a, rng)
		var net *dist.Network
		name := "canonical-ids"
		if perm {
			net = dist.NewNetworkPermuted(g, rng)
			name = "permuted-ids"
		} else {
			net = dist.NewNetwork(g)
		}
		res, err := coreLegal(net, a)
		if err != nil {
			return nil, err
		}
		ok := g.CheckLegalColoring(res.colors) == nil
		rows = append(rows, Row{
			Exp: "E22", Workload: fmt.Sprintf("forest-union n=%d a=%d", g.N(), a),
			Params: name, Colors: graph.NumColors(res.colors), Rounds: res.rounds, Messages: res.messages,
			Measured: float64(graph.NumColors(res.colors)), Bound: float64(20 * a),
			Metric: "colors vs 20a", OK: ok && graph.NumColors(res.colors) <= 20*a,
		})
	}
	return rows, nil
}
