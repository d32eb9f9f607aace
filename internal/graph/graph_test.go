package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Error("negative endpoint accepted")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestBasicAccessors(t *testing.T) {
	g, err := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 5 {
		t.Fatalf("N,M = %d,%d want 4,5", g.N(), g.M())
	}
	if g.Degree(0) != 3 || g.Degree(1) != 2 {
		t.Errorf("degrees wrong: %d, %d", g.Degree(0), g.Degree(1))
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if !g.HasEdge(0, 2) || g.HasEdge(1, 3) {
		t.Error("HasEdge wrong")
	}
	if g.PortOf(0, 2) != 1 { // neighbors of 0 sorted: 1,2,3
		t.Errorf("PortOf(0,2) = %d, want 1", g.PortOf(0, 2))
	}
	if g.PortOf(1, 3) != -1 {
		t.Error("PortOf on non-edge should be -1")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Gnp(50, 0.1, rng)
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("Edges() returned %d, M = %d", len(edges), g.M())
	}
	g2, err := FromEdges(g.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("round trip lost edges: %d vs %d", g2.M(), g.M())
	}
	for _, e := range edges {
		if !g2.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, _ := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	sub, orig, err := g.InducedSubgraph([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 1 {
		t.Fatalf("sub N,M = %d,%d want 3,1", sub.N(), sub.M())
	}
	if !sub.HasEdge(0, 1) { // maps to original (1,2)
		t.Error("expected edge between mapped 1 and 2")
	}
	if orig[0] != 1 || orig[1] != 2 || orig[2] != 4 {
		t.Errorf("orig mapping wrong: %v", orig)
	}
	if _, _, err := g.InducedSubgraph([]int{1, 1}); err == nil {
		t.Error("duplicate vertex accepted")
	}
	if _, _, err := g.InducedSubgraph([]int{7}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestConnectedComponents(t *testing.T) {
	g, _ := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Errorf("component sizes wrong: %v", sizes)
	}
}

func TestIsForest(t *testing.T) {
	if !Path(10).IsForest() {
		t.Error("path should be a forest")
	}
	cyc, err := Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if cyc.IsForest() {
		t.Error("cycle should not be a forest")
	}
	rng := rand.New(rand.NewSource(2))
	if !RandomTree(100, rng).IsForest() {
		t.Error("random tree should be a forest")
	}
}

func TestGeneratorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if g := Star(10); g.MaxDegree() != 9 || g.M() != 9 {
		t.Error("star shape wrong")
	}
	if g := Complete(6); g.M() != 15 || g.MaxDegree() != 5 {
		t.Error("complete shape wrong")
	}
	if g := CompleteBipartite(3, 4); g.M() != 12 || g.MaxDegree() != 4 {
		t.Error("bipartite shape wrong")
	}
	if g := Grid(4, 5); g.N() != 20 || g.M() != 4*4+3*5 {
		t.Error("grid shape wrong")
	}
	if _, err := Cycle(2); err == nil {
		t.Error("Cycle(2) accepted")
	}
	g := RandomRegularish(100, 4, rng)
	if g.MaxDegree() > 4 {
		t.Errorf("regularish max degree %d > 4", g.MaxDegree())
	}
}

func TestGnpDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, p := 300, 0.05
	g := Gnp(n, p, rng)
	expect := float64(n*(n-1)/2) * p
	if got := float64(g.M()); got < 0.7*expect || got > 1.3*expect {
		t.Errorf("Gnp edge count %v far from expectation %v", got, expect)
	}
	if Gnp(10, 0, rng).M() != 0 {
		t.Error("Gnp p=0 has edges")
	}
	if Gnp(10, 1, rng).M() != 45 {
		t.Error("Gnp p=1 not complete")
	}
}

func TestForestUnionArboricity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 4, 8} {
		g := ForestUnion(200, k, rng)
		if ub := g.ArboricityUpperBound(); ub > 2*k {
			t.Errorf("ForestUnion k=%d degeneracy %d > 2k", k, ub)
		}
		// True arboricity <= k; Nash-Williams lower bound must respect it.
		if lb := g.ArboricityLowerBound(); lb > k {
			t.Errorf("ForestUnion k=%d lower bound %d > k", k, lb)
		}
	}
}

func TestStarForestRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := StarForest(2000, 2, 3, 500, rng)
	if g.MaxDegree() < 400 {
		t.Errorf("StarForest Delta = %d, want large", g.MaxDegree())
	}
	if ub := g.ArboricityUpperBound(); ub > 8 {
		t.Errorf("StarForest degeneracy %d, want small", ub)
	}
}

func TestPowerLawishDegeneracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := PowerLawish(500, 3, rng)
	if d, _ := g.Degeneracy(); d > 3 {
		t.Errorf("PowerLawish degeneracy %d > k=3", d)
	}
}

// TestGeneratorsAreFunctionsOfTheSeed builds every seeded generator twice
// from one seed and requires equal edge lists.
func TestGeneratorsAreFunctionsOfTheSeed(t *testing.T) {
	gens := map[string]func(*rand.Rand) *Graph{
		"RandomTree":       func(r *rand.Rand) *Graph { return RandomTree(500, r) },
		"Gnp":              func(r *rand.Rand) *Graph { return Gnp(300, 0.05, r) },
		"ForestUnion":      func(r *rand.Rand) *Graph { return ForestUnion(500, 4, r) },
		"StarForest":       func(r *rand.Rand) *Graph { return StarForest(500, 3, 4, 60, r) },
		"PowerLawish":      func(r *rand.Rand) *Graph { return PowerLawish(2000, 4, r) },
		"RandomRegularish": func(r *rand.Rand) *Graph { return RandomRegularish(500, 6, r) },
		"UnitDiskish":      func(r *rand.Rand) *Graph { return UnitDiskish(300, 10, 1.5, r) },
	}
	for name, gen := range gens {
		want := gen(rand.New(rand.NewSource(5))).Edges()
		for i := 0; i < 3; i++ {
			if got := gen(rand.New(rand.NewSource(5))).Edges(); !slices.Equal(got, want) {
				t.Errorf("%s: two builds from seed 5 differ", name)
				break
			}
		}
	}
}

func TestUnitDiskish(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := UnitDiskish(100, 10, 1.5, rng)
	if g.N() != 100 {
		t.Fatal("wrong size")
	}
	// Just sanity: some edges, not complete.
	if g.M() == 0 || g.M() == 100*99/2 {
		t.Errorf("suspicious edge count %d", g.M())
	}
}
