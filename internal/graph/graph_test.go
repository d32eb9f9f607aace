package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
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

	// Endpoints are stored as uint32s: above math.MaxUint32 is out of
	// range whatever n says, and a Builder allocates nothing for its n
	// until Build.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	big := NewBuilder(1 << 33)
	if err := big.AddEdge(0, math.MaxUint32); err != nil {
		t.Errorf("endpoint math.MaxUint32 rejected: %v", err)
	}
	if err := big.AddEdge(math.MaxUint32+1, 0); err == nil {
		t.Error("endpoint above math.MaxUint32 accepted")
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<16 {
		t.Errorf("NewBuilder(1<<33) and two AddEdge calls allocated %d bytes", d)
	}
}

// refBuilder is the map-keyed builder that Builder replaced, kept as the
// reference TestBuilderMatchesReference compares Builder against.
type refBuilder struct {
	n     int
	edges map[[2]int]struct{}
}

func newRefBuilder(n int) *refBuilder {
	return &refBuilder{n: n, edges: make(map[[2]int]struct{})}
}

func (b *refBuilder) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u > v {
		u, v = v, u
	}
	b.edges[[2]int{u, v}] = struct{}{}
	return nil
}

func (b *refBuilder) Build() *Graph {
	adj := make([][]int, b.n)
	for e := range b.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, l := range adj {
		sort.Ints(l)
	}
	return &Graph{n: b.n, m: len(b.edges), adj: adj}
}

func requireSameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: N, M = %d, %d, want %d, %d", what, got.N(), got.M(), want.N(), want.M())
	}
	for v := 0; v < want.N(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("%s: vertex %d has neighbors %v, want %v", what, v, got.Neighbors(v), want.Neighbors(v))
		}
	}
}

// TestBuilderMatchesReference feeds seeded random edge multisets - loops,
// duplicates in both orientations, vertices left isolated - to Builder
// and to the map-keyed reference, and requires equal adjacency and M().
// It also builds twice, adds edges after a Build and builds again, and
// checks that the earlier graph did not change.
func TestBuilderMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000} {
		for seed := int64(1); seed <= 4; seed++ {
			what := fmt.Sprintf("n=%d seed=%d", n, seed)
			rng := rand.New(rand.NewSource(seed))
			b, ref := NewBuilder(n), newRefBuilder(n)
			// Endpoints come from the first three quarters of the
			// vertices (all of them when n < 4), so the rest stay
			// isolated; denser seeds repeat more pairs.
			span := max(n-n/4, 1)
			if n < 4 {
				span = n
			}
			add := func() {
				for i := 0; i < int(seed)*n; i++ {
					u, v := rng.Intn(span), rng.Intn(span)
					errB, errRef := b.AddEdge(u, v), ref.AddEdge(u, v)
					if (errB == nil) != (errRef == nil) {
						t.Fatalf("%s: AddEdge(%d, %d) = %v, reference %v", what, u, v, errB, errRef)
					}
					if errB == nil && rng.Intn(4) == 0 {
						_, _ = b.AddEdge(v, u), ref.AddEdge(v, u)
					}
				}
			}
			add()
			first := b.Build()
			requireSameGraph(t, what, first, ref.Build())
			requireSameGraph(t, what+" (second Build)", b.Build(), first)
			firstEdges := first.Edges()
			add()
			requireSameGraph(t, what+" (AddEdge after Build)", b.Build(), ref.Build())
			if !slices.Equal(first.Edges(), firstEdges) {
				t.Fatalf("%s: a later AddEdge and Build changed an earlier graph", what)
			}
		}
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

// graphHash is the FNV-64a hash of N, M and Edges(), each as a
// little-endian uint64.
func graphHash(g *Graph) uint64 {
	h := fnv.New64a()
	var w [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(w[:], uint64(x))
		h.Write(w[:])
	}
	put(g.N())
	put(g.M())
	for _, e := range g.Edges() {
		put(e[0])
		put(e[1])
	}
	return h.Sum64()
}

// TestGeneratorsAreFunctionsOfTheSeed builds every generator twice from
// one seed and requires both builds to hash to a pinned value, so a
// change to the builder or a generator cannot move any graph unseen. The
// perfbench rows are that benchmark's instances at seed 3; the large Gnp
// row decodes pairs across thousands of rows.
func TestGeneratorsAreFunctionsOfTheSeed(t *testing.T) {
	must := func(g *Graph, err error) *Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gens := []struct {
		name string
		seed int64
		gen  func(*rand.Rand) *Graph
		hash uint64
	}{
		{"RandomTree", 5, func(r *rand.Rand) *Graph { return RandomTree(500, r) }, 0x5720d0458bfae1c9},
		{"Gnp", 5, func(r *rand.Rand) *Graph { return Gnp(300, 0.05, r) }, 0xfbb242066c025f9f},
		{"Gnp/rows", 5, func(r *rand.Rand) *Graph { return Gnp(4000, 0.002, r) }, 0x1af2ee9ce5de0f9c},
		{"Gnp/dense", 5, func(r *rand.Rand) *Graph { return Gnp(50, 0.9, r) }, 0xa771d8cae557909e},
		{"ForestUnion", 5, func(r *rand.Rand) *Graph { return ForestUnion(500, 4, r) }, 0x6d79545a210f5f48},
		{"StarForest", 5, func(r *rand.Rand) *Graph { return StarForest(500, 3, 4, 60, r) }, 0x5f92f5e153bde9c1},
		{"PowerLawish", 5, func(r *rand.Rand) *Graph { return PowerLawish(2000, 4, r) }, 0x9cd5bfbdf4637331},
		{"RandomRegularish", 5, func(r *rand.Rand) *Graph { return RandomRegularish(500, 6, r) }, 0x8b03babf4a935bbf},
		{"UnitDiskish", 5, func(r *rand.Rand) *Graph { return UnitDiskish(300, 10, 1.5, r) }, 0x4ad665790d27a290},
		{"perfbench/ForestUnion", 3, func(r *rand.Rand) *Graph { return ForestUnion(50000, 8, r) }, 0xdce0aad6a1335dd4},
		{"perfbench/RandomRegularish", 3, func(r *rand.Rand) *Graph { return RandomRegularish(20000, 16, r) }, 0xf12e9acd38795a7c},
		{"Path", 0, func(*rand.Rand) *Graph { return Path(100) }, 0x24ec238d0762d961},
		{"Cycle", 0, func(*rand.Rand) *Graph { return must(Cycle(100)) }, 0x77966bc6e53cf145},
		{"Star", 0, func(*rand.Rand) *Graph { return Star(100) }, 0x3912fd82db56ce42},
		{"Complete", 0, func(*rand.Rand) *Graph { return Complete(30) }, 0xd87ca5d8358ceb62},
		{"CompleteBipartite", 0, func(*rand.Rand) *Graph { return CompleteBipartite(7, 11) }, 0x7ac912c3bc91591b},
		{"Grid", 0, func(*rand.Rand) *Graph { return Grid(12, 17) }, 0x33d6049a56f2d266},
		{"InducedSubgraph", 5, func(r *rand.Rand) *Graph {
			sub, _, err := ForestUnion(500, 4, r).InducedSubgraph(r.Perm(500)[:200])
			return must(sub, err)
		}, 0x11163c9ef43db760},
		{"FromEdges", 0, func(*rand.Rand) *Graph {
			return must(FromEdges(6, [][2]int{{0, 1}, {1, 0}, {4, 2}, {2, 4}, {0, 1}, {5, 3}, {3, 0}}))
		}, 0x5f0f053686a20f45},
	}
	for _, tc := range gens {
		for i := 0; i < 2; i++ {
			if got := graphHash(tc.gen(rand.New(rand.NewSource(tc.seed)))); got != tc.hash {
				t.Errorf("%s (seed %d, build %d): hash %#x, want %#x", tc.name, tc.seed, i, got, tc.hash)
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

var benchGraph *Graph

// BenchmarkBuild times graph construction - each generator's draws, its
// AddEdge calls and Build - on perfbench's two instances at seed 3 and a
// sparse Gnp.
func BenchmarkBuild(b *testing.B) {
	gens := []struct {
		name string
		gen  func(*rand.Rand) *Graph
	}{
		{"ForestUnion(5e4,8)", func(r *rand.Rand) *Graph { return ForestUnion(50000, 8, r) }},
		{"RandomRegularish(2e4,16)", func(r *rand.Rand) *Graph { return RandomRegularish(20000, 16, r) }},
		{"Gnp(2e4,1e-3)", func(r *rand.Rand) *Graph { return Gnp(20000, 1e-3, r) }},
	}
	for _, tc := range gens {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchGraph = tc.gen(rand.New(rand.NewSource(3)))
			}
		})
	}
}
