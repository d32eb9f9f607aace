package arbdefect

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/orient"
)

func TestSimpleArbdefectiveTheorem32(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	a := 6
	g := graph.ForestUnion(400, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	po, err := orient.Partial(net, a, 2, forest.DefaultEps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigma := po.Orient.Orientation(net)
	for _, k := range []int{1, 2, 4, 8} {
		sr, err := Simple(net, po.Orient, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if nc := graph.NumColors(sr.Colors); nc > k {
			t.Errorf("k=%d: %d colors used", k, nc)
		}
		// Theorem 3.2: (tau + floor(m/k))-arbdefective, witnessed by sigma.
		if err := g.CheckArbdefectWitness(sr.Colors, sigma, sr.Bound); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		// Rounds <= length + 1.
		s := orient.MeasureWithin(sigma, nil, nil)
		if sr.Rounds > s.Length+1 {
			t.Errorf("k=%d: rounds %d > len+1 = %d", k, sr.Rounds, s.Length+1)
		}
	}
}

// TestSimpleReusesOrientation: Simple-Arbdefective for k = 2, 4, 8 on
// one Partial-Orientation colors exactly like three runs on fresh ones,
// so no run leaves its state in the orientation's column.
func TestSimpleReusesOrientation(t *testing.T) {
	rng := rand.New(rand.NewSource(605))
	a := 6
	g := graph.ForestUnion(400, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	partial := func() *forest.OrientResult {
		po, err := orient.Partial(net, a, 2, forest.DefaultEps, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return po.Orient
	}
	shared := partial()
	for _, k := range []int{2, 4, 8} {
		reused, err := Simple(net, shared, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		fresh, err := Simple(net, partial(), k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !slices.Equal(reused.Colors, fresh.Colors) || reused.Rounds != fresh.Rounds {
			t.Fatalf("k=%d: the reused orientation colors differently from a fresh one", k)
		}
	}
}

func TestSimpleRejectsBadK(t *testing.T) {
	net := dist.NewNetwork(graph.Path(4))
	if _, err := Simple(net, &forest.OrientResult{}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestArbdefectiveColoringCorollary36(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	eps := forest.DefaultEps
	for _, a := range []int{4, 8} {
		for _, kt := range []struct{ k, t int }{{2, 2}, {4, 4}, {3, 2}} {
			g := graph.ForestUnion(350, a, rng)
			net := dist.NewNetworkPermuted(g, rng)
			res, err := Coloring(net, a, kt.k, kt.t, eps, nil, nil)
			if err != nil {
				t.Fatalf("a=%d k=%d t=%d: %v", a, kt.k, kt.t, err)
			}
			if nc := graph.NumColors(res.Colors); nc > kt.k {
				t.Errorf("a=%d k=%d t=%d: %d colors", a, kt.k, kt.t, nc)
			}
			if res.Bound != a/kt.t+eps.Threshold(a)/kt.k {
				t.Errorf("bound formula mismatch: %d", res.Bound)
			}
			if err := g.CheckArbdefectWitness(res.Colors, res.Orient.Orientation(net), res.Bound); err != nil {
				t.Errorf("a=%d k=%d t=%d: %v", a, kt.k, kt.t, err)
			}
			// Degeneracy-based check too (arboricity <= degeneracy <= 2*arb).
			if err := g.CheckArbdefectiveColoring(res.Colors, 2*res.Bound); err != nil {
				t.Errorf("a=%d k=%d t=%d degeneracy: %v", a, kt.k, kt.t, err)
			}
			// O(t^2 log n) rounds.
			logn := int(math.Log2(float64(g.N())))
			if lim := (kt.t*kt.t + 30) * (logn + 8); res.Tally.Rounds() > lim {
				t.Errorf("a=%d k=%d t=%d: %d rounds > %d", a, kt.k, kt.t, res.Tally.Rounds(), lim)
			}
		}
	}
}

func TestColoringDecomposesArboricity(t *testing.T) {
	// The headline use (k = t): the graph splits into k parts of
	// arboricity <= floor((3+eps)a/k)-ish; verify via per-class degeneracy.
	rng := rand.New(rand.NewSource(602))
	a, k := 8, 4
	g := graph.ForestUnion(400, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	res, err := Coloring(net, a, k, k, forest.DefaultEps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c, class := range graph.ColorClasses(res.Colors) {
		sub, _, err := g.InducedSubgraph(class)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := sub.Degeneracy(); d > 2*res.Bound {
			t.Errorf("class %d degeneracy %d > 2*bound=%d", c, d, 2*res.Bound)
		}
	}
}

func TestColoringValidation(t *testing.T) {
	net := dist.NewNetwork(graph.Path(4))
	if _, err := Coloring(net, 1, 0, 1, forest.DefaultEps, nil, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Coloring(net, 1, 1, 0, forest.DefaultEps, nil, nil); err == nil {
		t.Error("t=0 accepted")
	}
}

func TestColoringWithinLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	a, k := 4, 3
	g := graph.ForestUnion(300, a, rng)
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = v % 2
	}
	net := dist.NewNetworkPermuted(g, rng)
	res, err := Coloring(net, a, k, k, forest.DefaultEps, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Witness within labels: per (label,class) induced subgraph degeneracy.
	composed := dist.ComposeLabels(labels, res.Colors)
	for c, class := range graph.ColorClasses(composed) {
		sub, _, err := g.InducedSubgraph(class)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := sub.Degeneracy(); d > 2*res.Bound {
			t.Errorf("label-class %d degeneracy %d > %d", c, d, 2*res.Bound)
		}
	}
}

func TestKuhnSection5(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	a := 8
	g := graph.ForestUnion(400, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	for _, tt := range []int{2, 4} {
		res, err := Kuhn(net, a, tt, forest.DefaultEps)
		if err != nil {
			t.Fatalf("t=%d: %v", tt, err)
		}
		if res.Defect != a/tt {
			t.Errorf("t=%d: defect %d != %d", tt, res.Defect, a/tt)
		}
		if err := g.CheckArbdefectWitness(res.Colors, res.Orient.Orientation(net), res.Defect); err != nil {
			t.Errorf("t=%d: %v", tt, err)
		}
		// O(t^2)-ish colors: generous constant.
		ratio := forest.DefaultEps.Threshold(a)/max(res.Defect, 1) + 2
		if nc := graph.NumColors(res.Colors); nc > 16*ratio*ratio+26 {
			t.Errorf("t=%d: %d colors (ratio %d)", tt, nc, ratio)
		}
		// O(log n) rounds.
		if lim := 8*int(math.Log2(float64(g.N()))) + 30; res.Tally.Rounds() > lim {
			t.Errorf("t=%d: %d rounds > %d", tt, res.Tally.Rounds(), lim)
		}
	}
}

func TestKuhnRejectsBadT(t *testing.T) {
	net := dist.NewNetwork(graph.Path(4))
	if _, err := Kuhn(net, 1, 0, forest.DefaultEps); err == nil {
		t.Error("t=0 accepted")
	}
}

// BenchmarkArbdefectiveColoring runs one Arbdefective-Coloring (a=8,
// k=t=4) on a forest union of 20000 vertices: Partial-Orientation, then
// Simple-Arbdefective on its direction column. One warmed network serves
// every iteration, on one worker, so the figure is the warm sequential
// cost of the phases themselves.
func BenchmarkArbdefectiveColoring(b *testing.B) {
	g := graph.ForestUnion(20000, 8, rand.New(rand.NewSource(606)))
	net := dist.NewNetwork(g).WithWorkers(1)
	color := func() {
		if _, err := Coloring(net, 8, 4, 4, forest.DefaultEps, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	color() // fill the session's topology and scratch caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		color()
	}
}
