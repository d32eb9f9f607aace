package recolor

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

func TestLinialOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 5; trial++ {
		g := graph.Gnp(200, 0.05, rng)
		net := dist.NewNetworkPermuted(g, rng)
		res, err := Linial(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.CheckLegalColoring(res.Colors); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		delta := g.MaxDegree()
		if mc := graph.MaxColor(res.Colors); mc >= 8*delta*delta+1 {
			t.Errorf("trial %d: max color %d vs Delta=%d", trial, mc, delta)
		}
		if limit := graph.LogStar(g.N()) + 2; res.Rounds > limit {
			t.Errorf("trial %d: %d rounds > %d", trial, res.Rounds, limit)
		}
	}
}

func TestLinialOnStructuredGraphs(t *testing.T) {
	cyc, err := graph.Cycle(101)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"path":      graph.Path(64),
		"cycle":     cyc,
		"star":      graph.Star(50),
		"complete":  graph.Complete(12),
		"grid":      graph.Grid(8, 8),
		"singleton": graph.NewBuilder(1).Build(),
		"empty":     graph.NewBuilder(10).Build(),
	}
	for name, g := range graphs {
		net := dist.NewNetwork(g)
		res, err := Linial(net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.CheckLegalColoring(res.Colors); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDefectiveColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, p := range []int{2, 4, 8} {
		for trial := 0; trial < 3; trial++ {
			g := graph.RandomRegularish(300, 24, rng)
			net := dist.NewNetworkPermuted(g, rng)
			res, err := Defective(net, p)
			if err != nil {
				t.Fatal(err)
			}
			delta := g.MaxDegree()
			if err := g.CheckDefectiveColoring(res.Colors, delta/p); err != nil {
				t.Errorf("p=%d trial %d: %v", p, trial, err)
			}
			if nc := graph.NumColors(res.Colors); nc > 16*p*p+26 {
				t.Errorf("p=%d trial %d: %d colors", p, trial, nc)
			}
			if limit := graph.LogStar(g.N()) + 2; res.Rounds > limit {
				t.Errorf("p=%d trial %d: %d rounds > %d", p, trial, res.Rounds, limit)
			}
		}
	}
}

func TestDefectiveRejectsBadP(t *testing.T) {
	net := dist.NewNetwork(graph.Path(4))
	if _, err := Defective(net, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := Defective(net, -3); err == nil {
		t.Error("p=-3 accepted")
	}
}

// orientTowardsLarger orients every edge towards its larger endpoint
// (always acyclic).
func orientTowardsLarger(g *graph.Graph) *graph.Orientation {
	o := graph.NewOrientation(g)
	for _, e := range g.Edges() {
		_ = o.Orient(e[0], e[1])
	}
	return o
}

// dirsOf is sigma's direction column in the unfiltered engine layout
// (forest.OrientResult.Dirs): +1 parent, -1 child, 0 unoriented.
func dirsOf(sigma *graph.Orientation) []int64 {
	g := sigma.Graph()
	var dirs []int64
	for v := 0; v < g.N(); v++ {
		for p, u := range g.Neighbors(v) {
			var d int64
			switch {
			case sigma.IsParentPort(v, p):
				d = +1
			case sigma.IsParent(u, v):
				d = -1
			}
			dirs = append(dirs, d)
		}
	}
	return dirs
}

func TestArbKuhnProducesWitnessedArbdefect(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	g := graph.ForestUnion(300, 6, rng)
	sigma := orientTowardsLarger(g)
	net := dist.NewNetworkPermuted(g, rng)
	a := sigma.MaxOutDegree()
	for _, d := range []int{1, 2, a / 2} {
		res, err := ArbKuhn(net, dirsOf(sigma), a, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.CheckArbdefectWitness(res.Colors, sigma, d); err != nil {
			t.Errorf("d=%d: %v", d, err)
		}
		// Rough color bound: O((A/d)^2).
		ratio := (a + d) / (d + 1)
		if nc := graph.NumColors(res.Colors); nc > 16*(ratio+2)*(ratio+2)+26 {
			t.Errorf("d=%d: %d colors, A=%d", d, nc, a)
		}
	}
}

func TestArbKuhnZeroDefectIsLegal(t *testing.T) {
	// With d=0 on a complete acyclic orientation, every edge has a
	// parent/child endpoint pair, so the coloring is fully legal.
	rng := rand.New(rand.NewSource(103))
	g := graph.ForestUnion(200, 3, rng)
	sigma := orientTowardsLarger(g)
	net := dist.NewNetworkPermuted(g, rng)
	res, err := ArbKuhn(net, dirsOf(sigma), sigma.MaxOutDegree(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegalColoring(res.Colors); err != nil {
		t.Error(err)
	}
}

func TestArbKuhnValidation(t *testing.T) {
	g := graph.Path(5)
	net := dist.NewNetwork(g)
	if _, err := ArbKuhn(net, dirsOf(orientTowardsLarger(graph.Path(4))), 1, 1); err == nil {
		t.Error("a column that does not fit this network accepted")
	}
	if _, err := ArbKuhn(net, dirsOf(orientTowardsLarger(g)), 1, -1); err == nil {
		t.Error("negative defect accepted")
	}
}

func TestRecolorOnceDeterministicAndInRange(t *testing.T) {
	step := Step{Q: 11, D: 2, DefectOut: 0}
	x := 42
	conflicts := []int{3, 17, 99, 3}
	a := recolorOnce(step, x, conflicts)
	b := recolorOnce(step, x, conflicts)
	if a != b {
		t.Error("recolorOnce not deterministic")
	}
	if a < 0 || a >= step.Q*step.Q {
		t.Errorf("new color %d outside [0,%d)", a, step.Q*step.Q)
	}
}

func TestDefectiveOnLabelledSubgraphs(t *testing.T) {
	// Two disjoint-label halves of a graph run simultaneously with their
	// own degree bounds; defects must hold within each label class.
	rng := rand.New(rand.NewSource(104))
	g := graph.RandomRegularish(200, 10, rng)
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = v % 2
	}
	// Per-label max visible degree.
	degBound := [2]int{}
	for v := 0; v < g.N(); v++ {
		d := 0
		for _, u := range g.Neighbors(v) {
			if labels[u] == labels[v] {
				d++
			}
		}
		if d > degBound[labels[v]] {
			degBound[labels[v]] = d
		}
	}
	// Params are vertex-uniform, so each label class runs with its own
	// degree bound under an active mask selecting the class.
	net := dist.NewNetwork(g)
	colors := make([]int, g.N())
	for class, db := range degBound {
		active := make([]bool, g.N())
		for v := range active {
			active[v] = labels[v] == class
		}
		dst := make([]int, g.N())
		p := Params{Color: -1, M0: g.N(), DegBound: db, TargetDefect: db / 2}
		if _, err := RunUniform(net, p, nil, labels, active, dst); err != nil {
			t.Fatal(err)
		}
		for v := range dst {
			if active[v] {
				colors[v] = dst[v]
			}
		}
	}
	// Check defect within each label class only.
	for v := 0; v < g.N(); v++ {
		same := 0
		for _, u := range g.Neighbors(v) {
			if labels[u] == labels[v] && colors[u] == colors[v] {
				same++
			}
		}
		if same > degBound[labels[v]]/2 {
			t.Fatalf("vertex %d: defect %d > %d within label %d", v, same, degBound[labels[v]]/2, labels[v])
		}
	}
}
