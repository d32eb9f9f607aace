package reduce

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// legalStartingColoring returns a legal coloring with inflated color values
// to exercise the reduction: greedy colors scaled and shifted.
func legalStartingColoring(g *graph.Graph, spread int) ([]int, int) {
	_, order := g.Degeneracy()
	rev := make([]int, len(order))
	for i, v := range order {
		rev[len(order)-1-i] = v
	}
	base := g.GreedyColorByOrder(rev)
	colors := make([]int, g.N())
	maxc := 0
	for v, c := range base {
		colors[v] = c*spread + (v % spread)
		if colors[v] > maxc {
			maxc = colors[v]
		}
	}
	return colors, maxc + 1
}

func TestMakePlanProgress(t *testing.T) {
	for _, tc := range []struct{ m, t int }{
		{100, 4}, {5, 4}, {1000, 7}, {8, 4}, {9, 4}, {1 << 20, 10},
	} {
		phases := makePlan(tc.m, tc.t)
		if len(phases) == 0 {
			t.Errorf("makePlan(%d,%d) empty", tc.m, tc.t)
		}
		if len(phases) > 64 {
			t.Errorf("makePlan(%d,%d) has %d phases", tc.m, tc.t, len(phases))
		}
		for _, f := range phases {
			if f < 1 || f > tc.t {
				t.Errorf("makePlan(%d,%d) fold count %d out of range", tc.m, tc.t, f)
			}
		}
	}
}

func TestRoundsFormula(t *testing.T) {
	if Rounds(10, 20) != 0 {
		t.Error("m <= t should cost 0 rounds")
	}
	if r := Rounds(1<<20, 8); r > 8*25+1 {
		t.Errorf("Rounds(2^20, 8) = %d, unexpectedly large", r)
	}
}

func TestKWReducesToMaxDegreePlusOne(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	for trial := 0; trial < 5; trial++ {
		g := graph.Gnp(150, 0.05, rng)
		colors, m := legalStartingColoring(g, 17)
		if err := g.CheckLegalColoring(colors); err != nil {
			t.Fatal(err)
		}
		target := g.MaxDegree() + 1
		net := dist.NewNetworkPermuted(g, rng)
		res, err := KW(net, colors, m, target, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.CheckLegalColoring(res.Colors); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if mc := graph.MaxColor(res.Colors); mc >= target {
			t.Fatalf("trial %d: max color %d >= target %d", trial, mc, target)
		}
		if res.Rounds > Rounds(m, target)+1 {
			t.Errorf("trial %d: rounds %d > planned %d", trial, res.Rounds, Rounds(m, target))
		}
	}
}

func TestKWNoOpWhenAlreadySmall(t *testing.T) {
	g := graph.Path(6)
	net := dist.NewNetwork(g)
	colors := []int{0, 1, 0, 1, 0, 1}
	res, err := KW(net, colors, 2, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Errorf("no-op reduction cost %d rounds", res.Rounds)
	}
	for v, c := range colors {
		if res.Colors[v] != c {
			t.Error("colors changed in no-op")
		}
	}
}

func TestKWWithinLabels(t *testing.T) {
	// Two label classes reduce independently; cross-label edges may end
	// monochromatic, intra-label edges must stay legal.
	rng := rand.New(rand.NewSource(301))
	g := graph.Gnp(120, 0.08, rng)
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = v % 2
	}
	// Legal coloring overall is legal within labels too.
	colors, m := legalStartingColoring(g, 5)
	// Per-label max visible degree.
	maxVis := 0
	for v := 0; v < g.N(); v++ {
		d := len(dist.VisiblePorts(g, labels, nil, v))
		if d > maxVis {
			maxVis = d
		}
	}
	target := maxVis + 1
	net := dist.NewNetwork(g)
	res, err := KW(net, colors, m, target, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if res.Colors[v] >= target {
			t.Fatalf("vertex %d color %d >= %d", v, res.Colors[v], target)
		}
		for _, u := range g.Neighbors(v) {
			if labels[u] == labels[v] && res.Colors[u] == res.Colors[v] {
				t.Fatalf("intra-label edge (%d,%d) monochromatic", v, u)
			}
		}
	}
}

func TestKWOnCompleteGraph(t *testing.T) {
	// Tight case: K_n needs exactly n colors; reduce from a padded coloring.
	g := graph.Complete(9)
	colors := make([]int, 9)
	for v := range colors {
		colors[v] = v * 3
	}
	net := dist.NewNetwork(g)
	res, err := KW(net, colors, 25, 9, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegalColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
	if mc := graph.MaxColor(res.Colors); mc >= 9 {
		t.Errorf("max color %d >= 9", mc)
	}
}

func TestKWValidation(t *testing.T) {
	g := graph.Path(3)
	net := dist.NewNetwork(g)
	if _, err := KW(net, []int{0, 1}, 2, 2, nil, nil); err == nil {
		t.Error("short colors accepted")
	}
	if _, err := KW(net, []int{0, 1, 0}, 2, 0, nil, nil); err == nil {
		t.Error("target 0 accepted")
	}
	// Target below degree+1: must surface the no-free-color error.
	k := graph.Complete(5)
	knet := dist.NewNetwork(k)
	if _, err := KW(knet, []int{0, 2, 4, 6, 8}, 10, 3, nil, nil); err == nil {
		t.Error("infeasible target accepted")
	}
}

// BenchmarkKW measures one Kuhn-Wattenhofer fold run - the engine's
// per-vertex step dispatch under the Δ+1 reductions - on a 16-regular-ish
// graph, from the identifier coloring (m = n) down to Δ+1 colors. The
// network, pool and output column are reused, as an orchestrator that
// reduces once per recursion level reuses them.
func BenchmarkKW(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomRegularish(2000, 16, rng)
	net := dist.NewNetworkPermuted(g, rng)
	colors := net.IDs()
	for v := range colors {
		colors[v]--
	}
	target := g.MaxDegree() + 1
	dst := make([]int, g.N())
	var pool Pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KWPooled(net, colors, g.N(), target, nil, nil, &pool, dst); err != nil {
			b.Fatal(err)
		}
	}
}
