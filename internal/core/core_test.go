package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/orient"
)

func TestLegalColoringTheorem43(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	for _, a := range []int{4, 8, 16} {
		g := graph.ForestUnion(500, a, rng)
		net := dist.NewNetworkPermuted(g, rng)
		res, err := ColorOA(net, a, 2.0/3.0)
		if err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		if err := g.CheckLegalColoring(res.Colors); err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		// O(a) colors: Lemma 4.2(3) bounds the palette by
		// (3+eps)^(iters+1) * a; verify against that explicit bound.
		bound := a
		for i := 0; i <= res.Iterations; i++ {
			bound = bound * 13 / 4 // (3+eps) with eps=1/4
		}
		bound += PForTheorem43(a, 2.0/3.0) // slack for ceil effects at small a
		if res.Palette > 2*bound {
			t.Errorf("a=%d: palette %d > 2*%d (iterations=%d)", a, res.Palette, bound, res.Iterations)
		}
		// Rounds: polylog in n for fixed a; sanity bound.
		logn := int(math.Log2(float64(g.N())))
		p := PForTheorem43(a, 2.0/3.0)
		if lim := (p*p + 60) * (logn + 10) * (res.Iterations + 2); res.Tally.Rounds() > lim {
			t.Errorf("a=%d: %d rounds > %d", a, res.Tally.Rounds(), lim)
		}
	}
}

func TestLegalColoringIterationsConstant(t *testing.T) {
	// Lemma 4.2(2): with p = ceil(a^(mu/2)) the loop runs O(1/mu) times.
	rng := rand.New(rand.NewSource(701))
	g := graph.ForestUnion(600, 32, rng)
	net := dist.NewNetworkPermuted(g, rng)
	res, err := ColorOA(net, 32, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 8 {
		t.Errorf("iterations = %d, want O(1/mu) = O(1)", res.Iterations)
	}
}

func TestLegalColoringSmallP(t *testing.T) {
	// Theorem 4.5 regime: small constant p, more iterations, more colors.
	rng := rand.New(rand.NewSource(702))
	a := 16
	g := graph.ForestUnion(500, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	res, err := LegalColoring(net, Config{Arboricity: a, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegalColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 {
		t.Error("expected at least one iteration for a=16, p=4")
	}
}

func TestLegalColoringValidation(t *testing.T) {
	net := dist.NewNetwork(graph.Path(4))
	if _, err := LegalColoring(net, Config{Arboricity: 0, P: 4}); err == nil {
		t.Error("a=0 accepted")
	}
	if _, err := LegalColoring(net, Config{Arboricity: 1, P: 3}); err == nil {
		t.Error("p=3 accepted (cannot converge)")
	}
}

func TestLegalColoringTrivialWhenALeP(t *testing.T) {
	// a <= p: zero iterations, straight to the Lemma 2.2 coloring.
	rng := rand.New(rand.NewSource(703))
	g := graph.ForestUnion(200, 3, rng)
	net := dist.NewNetworkPermuted(g, rng)
	res, err := LegalColoring(net, Config{Arboricity: 3, P: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Errorf("iterations = %d, want 0", res.Iterations)
	}
	if err := g.CheckLegalColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Palette != forest.DefaultEps.Threshold(3)+1 {
		t.Errorf("palette %d != theta(3)+1", res.Palette)
	}
}

func TestLegalColoringWithBaseLabels(t *testing.T) {
	// Base subgraphs get disjoint palettes; legality must hold globally.
	rng := rand.New(rand.NewSource(704))
	a := 8
	g := graph.ForestUnion(400, a, rng)
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = v % 3
	}
	net := dist.NewNetworkPermuted(g, rng)
	res, err := LegalColoring(net, Config{Arboricity: a, P: 4, Labels: labels})
	if err != nil {
		t.Fatal(err)
	}
	// Within-label edges legal by construction; cross-label edges get
	// disjoint palettes, so the whole coloring must be legal.
	if err := g.CheckLegalColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestLegalColoringDeltaPlusOneFinal(t *testing.T) {
	rng := rand.New(rand.NewSource(705))
	a := 8
	g := graph.ForestUnion(300, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	res, err := LegalColoring(net, Config{
		Arboricity:    a,
		P:             4,
		LevelColoring: orient.LevelDeltaPlusOne,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegalColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestOneShotLemma41(t *testing.T) {
	rng := rand.New(rand.NewSource(706))
	for _, a := range []int{8, 27} {
		g := graph.ForestUnion(400, a, rng)
		net := dist.NewNetworkPermuted(g, rng)
		res, err := OneShot(net, a, forest.DefaultEps)
		if err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		if err := g.CheckLegalColoring(res.Colors); err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		// O(a) colors: k*gamma with k = a^(1/3), gamma = O(a^(2/3)).
		if res.Palette > 30*a+60 {
			t.Errorf("a=%d: palette %d", a, res.Palette)
		}
	}
}

func TestOneShotRejectsBadA(t *testing.T) {
	net := dist.NewNetwork(graph.Path(4))
	if _, err := OneShot(net, 0, forest.DefaultEps); err == nil {
		t.Error("a=0 accepted")
	}
}

func TestCorollary47DeltaPlusOneRegime(t *testing.T) {
	// a << Delta: the coloring must use fewer than Delta+1 colors.
	rng := rand.New(rand.NewSource(707))
	g := graph.StarForest(1500, 2, 3, 400, rng)
	a := g.ArboricityUpperBound() // small
	delta := g.MaxDegree()        // huge
	if delta < 10*a {
		t.Skipf("workload not in the a << Delta regime: a=%d Delta=%d", a, delta)
	}
	net := dist.NewNetworkPermuted(g, rng)
	res, err := LegalColoring(net, Config{Arboricity: a, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegalColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
	if nc := graph.NumColors(res.Colors); nc > delta {
		t.Errorf("used %d colors >= Delta+1 = %d (Corollary 4.7 violated)", nc, delta+1)
	}
}

func TestMISFromColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(708))
	g := graph.Gnp(200, 0.05, rng)
	// Greedy legal coloring as input.
	_, order := g.Degeneracy()
	rev := make([]int, len(order))
	for i, v := range order {
		rev[len(order)-1-i] = v
	}
	colors := g.GreedyColorByOrder(rev)
	net := dist.NewNetworkPermuted(g, rng)
	res, err := MISFromColoring(net, colors)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckMIS(res.InMIS); err != nil {
		t.Fatal(err)
	}
	if res.Rounds > graph.MaxColor(colors) {
		t.Errorf("rounds %d > max color %d", res.Rounds, graph.MaxColor(colors))
	}
}

func TestMISEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(709))
	for _, a := range []int{2, 8} {
		g := graph.ForestUnion(300, a, rng)
		net := dist.NewNetworkPermuted(g, rng)
		mis, tally, err := MIS(net, Config{Arboricity: a, P: 4})
		if err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		if err := g.CheckMIS(mis.InMIS); err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		if tally.Rounds() <= 0 {
			t.Error("missing tally")
		}
	}
}

func TestMISValidation(t *testing.T) {
	net := dist.NewNetwork(graph.Path(3))
	if _, err := MISFromColoring(net, []int{0, 1}); err == nil {
		t.Error("short coloring accepted")
	}
	if _, err := MISFromColoring(net, []int{0, -1, 0}); err == nil {
		t.Error("negative color accepted")
	}
}

func TestFastColoringTheorem52(t *testing.T) {
	rng := rand.New(rand.NewSource(710))
	a := 16
	g := graph.ForestUnion(500, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	for _, gval := range []int{2, 4, 8} {
		res, err := FastColoring(net, a, gval, forest.DefaultEps)
		if err != nil {
			t.Fatalf("g=%d: %v", gval, err)
		}
		if err := g.CheckLegalColoring(res.Colors); err != nil {
			t.Fatalf("g=%d: %v", gval, err)
		}
	}
	if _, err := FastColoring(net, a, 0, forest.DefaultEps); err == nil {
		t.Error("g=0 accepted")
	}
	if _, err := FastColoring(net, a, a+1, forest.DefaultEps); err == nil {
		t.Error("g>a accepted")
	}
}

func TestColorATTheorem53(t *testing.T) {
	rng := rand.New(rand.NewSource(711))
	a := 16
	g := graph.ForestUnion(500, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	var prevColors int
	for _, tt := range []int{1, 2, 4} {
		res, err := ColorAT(net, a, tt, 0.5, forest.DefaultEps)
		if err != nil {
			t.Fatalf("t=%d: %v", tt, err)
		}
		if err := g.CheckLegalColoring(res.Colors); err != nil {
			t.Fatalf("t=%d: %v", tt, err)
		}
		nc := graph.NumColors(res.Colors)
		if prevColors > 0 && nc > 4*prevColors {
			t.Errorf("t=%d: colors %d grew sharply from %d", tt, nc, prevColors)
		}
		prevColors = nc
	}
	if _, err := ColorAT(net, a, 0, 0.5, forest.DefaultEps); err == nil {
		t.Error("t=0 accepted")
	}
}

func TestPParameterHelpers(t *testing.T) {
	if p := PForTheorem43(64, 2.0/3.0); p < 4 || p > 9 {
		t.Errorf("PForTheorem43(64, 2/3) = %d", p)
	}
	if p := PForCorollary46(0.5); p != 4 {
		t.Errorf("PForCorollary46(0.5) = %d, want 4", p)
	}
	if p := PForCorollary46(0.1); p != 1024 {
		t.Errorf("PForCorollary46(0.1) = %d, want 1024", p)
	}
	if p := PForCorollary46(-1); p != 4 {
		t.Errorf("PForCorollary46(-1) = %d, want 4", p)
	}
	if p := PForTheorem45(16); p != 4 {
		t.Errorf("PForTheorem45(16) = %d, want 4", p)
	}
	if p := PForTheorem45(100); p != 10 {
		t.Errorf("PForTheorem45(100) = %d, want 10", p)
	}
}

// BenchmarkLegalColoring runs one Legal-Coloring (a=8, p=4) on a forest
// union of 20000 vertices. Every iteration gets a fresh network on one
// worker, so no session carries pooled columns or cached topologies
// over: the figure is what one coloring of a new graph pays, as in
// perfbench's coloring_s.
func BenchmarkLegalColoring(b *testing.B) {
	g := graph.ForestUnion(20000, 8, rand.New(rand.NewSource(707)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LegalColoring(dist.NewNetwork(g).WithWorkers(1), Config{Arboricity: 8, P: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
