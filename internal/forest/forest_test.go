package forest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

func TestEpsThreshold(t *testing.T) {
	if got := DefaultEps.Threshold(4); got != 9 {
		t.Errorf("Threshold(4) = %d, want 9", got)
	}
	if got := (Eps{Num: 1, Den: 2}).Threshold(10); got != 25 {
		t.Errorf("Threshold(10) = %d, want 25", got)
	}
}

func TestHPartitionOnForestUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for _, a := range []int{1, 2, 4, 8} {
		g := graph.ForestUnion(400, a, rng)
		net := dist.NewNetworkPermuted(g, rng)
		hp, err := ComputeHPartition(net, a, DefaultEps, nil, nil)
		if err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		// Lemma 2.3: every vertex has at most floor((2+eps)a) neighbors in
		// its own or higher levels.
		for v := 0; v < g.N(); v++ {
			cnt := 0
			for _, u := range g.Neighbors(v) {
				if hp.Level[u] >= hp.Level[v] {
					cnt++
				}
			}
			if cnt > hp.Degree {
				t.Fatalf("a=%d vertex %d: %d same-or-higher neighbors > %d", a, v, cnt, hp.Degree)
			}
		}
		// O(log n) levels.
		if limit := 4*int(math.Log2(float64(g.N()))) + 8; hp.NumLevels > limit {
			t.Errorf("a=%d: %d levels > %d", a, hp.NumLevels, limit)
		}
		if hp.Rounds != hp.NumLevels {
			t.Errorf("a=%d: rounds %d != levels %d", a, hp.Rounds, hp.NumLevels)
		}
	}
}

func TestHPartitionTooSmallBound(t *testing.T) {
	// A clique has arboricity ~n/2; bound 1 must stall.
	net := dist.NewNetwork(graph.Complete(24))
	_, err := ComputeHPartition(net, 1, DefaultEps, nil, nil)
	if !errors.Is(err, ErrArboricityTooSmall) {
		t.Fatalf("err = %v, want ErrArboricityTooSmall", err)
	}
}

func TestHPartitionValidation(t *testing.T) {
	net := dist.NewNetwork(graph.Path(4))
	if _, err := ComputeHPartition(net, 0, DefaultEps, nil, nil); err == nil {
		t.Error("a=0 accepted")
	}
	if _, err := ComputeHPartition(net, 1, Eps{}, nil, nil); err == nil {
		t.Error("zero eps accepted")
	}
}

func TestEstimateArboricity(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	g := graph.ForestUnion(300, 5, rng)
	net := dist.NewNetworkPermuted(g, rng)
	a, hp, tally, err := EstimateArboricity(net, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if a < 1 || a > 16 {
		t.Errorf("estimated a = %d for true arboricity <= 5", a)
	}
	if hp == nil || tally == nil || tally.Rounds() == 0 {
		t.Error("missing partition or tally")
	}
}

func TestCompleteAcyclicOrientation(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, a := range []int{2, 5} {
		g := graph.ForestUnion(300, a, rng)
		net := dist.NewNetworkPermuted(g, rng)
		or, hp, err := CompleteAcyclicOrientation(net, a, DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		sigma := or.Orientation(net)
		if !sigma.IsComplete() {
			t.Fatal("orientation incomplete (ids are unique; no ties possible)")
		}
		if !sigma.IsAcyclic() {
			t.Fatal("orientation cyclic (Lemma 2.4 violated)")
		}
		if od := sigma.MaxOutDegree(); od > hp.Degree {
			t.Errorf("a=%d: out-degree %d > %d", a, od, hp.Degree)
		}
	}
}

func TestOrientByLevelKeyTiesUnoriented(t *testing.T) {
	// Same level, same key everywhere: nothing is oriented.
	g := graph.Path(5)
	net := dist.NewNetwork(g)
	levels := []int{1, 1, 1, 1, 1}
	keys := []int{7, 7, 7, 7, 7}
	or, err := OrientByLevelKey(net, levels, keys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigma := or.Orientation(net)
	if sigma.MaxDeficit() != 2 { // middle vertices have both edges unoriented
		t.Errorf("deficit = %d, want 2", sigma.MaxDeficit())
	}
	if sigma.MaxOutDegree() != 0 {
		t.Error("tied edges were oriented")
	}
}

func TestOrientRespectsLabels(t *testing.T) {
	g := graph.Path(4) // edges (0,1),(1,2),(2,3)
	net := dist.NewNetwork(g)
	labels := []int{0, 0, 1, 1}
	levels := []int{1, 2, 1, 2}
	keys := []int{0, 0, 0, 0}
	or, err := OrientByLevelKey(net, levels, keys, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigma := or.Orientation(net)
	if !sigma.IsParent(0, 1) || !sigma.IsParent(2, 3) {
		t.Error("intra-label edges not oriented")
	}
	if sigma.DirOf(1, 2) != graph.Unoriented {
		t.Error("cross-label edge was oriented")
	}
}

// TestOrientResultCountsAndFilters sweeps graph families and filters with
// random levels and keys: the out-degree and deficit OrientByLevelKey
// counts from its column must equal a direct sweep of the assembled
// orientation over the visible edges, and no cross-label or inactive
// edge may be oriented.
func TestOrientResultCountsAndFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	mixture := graph.NewBuilder(23) // star, clique, path, 3 isolated vertices
	for _, part := range []struct {
		off int
		g   *graph.Graph
	}{{0, graph.Star(8)}, {8, graph.Complete(5)}, {13, graph.Path(7)}} {
		for _, e := range part.g.Edges() {
			if err := mixture.AddEdge(part.off+e[0], part.off+e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"forest-union(a=2)", graph.ForestUnion(200, 2, rng)},
		{"forest-union(a=5)", graph.ForestUnion(200, 5, rng)},
		{"gnp", graph.Gnp(150, 0.05, rng)},
		{"star", graph.Star(40)},
		{"path", graph.Path(60)},
		{"mixture", mixture.Build()},
	} {
		g, n := c.g, c.g.N()
		net := dist.NewNetworkPermuted(g, rng)
		levels, keys := make([]int, n), make([]int, n)
		labels, active := make([]int, n), make([]bool, n)
		for v := 0; v < n; v++ {
			levels[v], keys[v] = rng.Intn(3), rng.Intn(5) // small ranges leave ties
			labels[v], active[v] = rng.Intn(2), rng.Intn(10) > 0
		}
		for _, f := range []struct {
			name   string
			labels []int
			active []bool
		}{{"none", nil, nil}, {"labels", labels, nil}, {"active", nil, active}, {"both", labels, active}} {
			or, err := OrientByLevelKey(net, levels, keys, f.labels, f.active)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, f.name, err)
			}
			sigma := or.Orientation(net)
			outDeg, deficit := 0, 0
			for v := 0; v < n; v++ {
				out, def := 0, 0
				for _, u := range g.Neighbors(v) {
					oriented := sigma.DirOf(v, u) != graph.Unoriented
					visible := (f.labels == nil || f.labels[v] == f.labels[u]) &&
						(f.active == nil || f.active[v] && f.active[u])
					switch {
					case !visible && oriented:
						t.Fatalf("%s/%s: invisible edge {%d,%d} oriented", c.name, f.name, v, u)
					case !visible:
					case sigma.IsParent(v, u):
						out++
					case !oriented:
						def++
					}
				}
				outDeg, deficit = max(outDeg, out), max(deficit, def)
			}
			if or.OutDegree != outDeg || or.Deficit != deficit {
				t.Errorf("%s/%s: counted out-degree %d deficit %d, assembled orientation has %d and %d",
					c.name, f.name, or.OutDegree, or.Deficit, outDeg, deficit)
			}
		}
	}
}

// TestOrientPackedOrder draws levels and keys over the whole int32
// range: a clique holds every (level, key) combination of MinInt32, -1,
// 0 and MaxInt32 plus copies of four of them (equal levels with
// different keys, and equal pairs), and a G(n,p) part holds uniform
// int32 draws with ties forced on some edges. Under no filter, labels
// and an active filter, every visible port's direction must equal a
// host-side lexicographic comparison of the endpoints' (level, key).
func TestOrientPackedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	extremes := []int{math.MinInt32, -1, 0, math.MaxInt32}
	const clique = 20
	random := graph.Gnp(200, 0.04, rng)
	b := graph.NewBuilder(clique + random.N())
	for u := 0; u < clique; u++ {
		for v := u + 1; v < clique; v++ {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range random.Edges() {
		if err := b.AddEdge(clique+e[0], clique+e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	n := g.N()
	levels, keys := make([]int, n), make([]int, n)
	for v := 0; v < n; v++ {
		switch {
		case v < 16:
			levels[v], keys[v] = extremes[v/4], extremes[v%4]
		case v < clique:
			levels[v], keys[v] = levels[v-16], keys[v-16]
		default:
			levels[v], keys[v] = int(int32(rng.Uint32())), int(int32(rng.Uint32()))
		}
	}
	for i, e := range random.Edges() {
		u, v := clique+e[0], clique+e[1]
		switch i % 4 {
		case 0:
			levels[v] = levels[u]
		case 1:
			levels[v], keys[v] = levels[u], keys[u]
		}
	}
	labels, active := make([]int, n), make([]bool, n)
	for v := 0; v < n; v++ {
		labels[v], active[v] = rng.Intn(2), rng.Intn(8) > 0
	}
	want := func(v, u int) int64 {
		switch {
		case levels[u] > levels[v] || levels[u] == levels[v] && keys[u] > keys[v]:
			return +1
		case levels[u] < levels[v] || levels[u] == levels[v] && keys[u] < keys[v]:
			return -1
		}
		return 0
	}
	net := dist.NewNetworkPermuted(g, rng)
	for _, f := range []struct {
		name   string
		labels []int
		active []bool
	}{{"none", nil, nil}, {"labels", labels, nil}, {"active", nil, active}} {
		or, err := OrientByLevelKey(net, levels, keys, f.labels, f.active)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		off, ties := 0, 0
		dist.ForEachVisible(g, f.labels, f.active, func(v int, ports []int) {
			for p, u := range ports {
				if off+p >= len(or.Dirs) {
					t.Fatalf("%s: Dirs has %d words, vertex %d port %d is past it", f.name, len(or.Dirs), v, p)
				}
				w := want(v, u)
				if got := or.Dirs[off+p]; got != w {
					t.Errorf("%s: %d (%d, %d) -> %d (%d, %d): direction %d, want %d",
						f.name, v, levels[v], keys[v], u, levels[u], keys[u], got, w)
				}
				if w == 0 {
					ties++
				}
			}
			off += len(ports)
		})
		if off != len(or.Dirs) {
			t.Errorf("%s: Dirs has %d words for %d visible ports", f.name, len(or.Dirs), off)
		}
		if ties == 0 {
			t.Errorf("%s: no tied edge was checked", f.name)
		}
	}
}

// countRuns is a probe sink; the probe's totals count the runs.
type countRuns struct{}

func (countRuns) FlushRounds([]dist.RoundRecord) error { return nil }
func (countRuns) FlushRuns([]dist.RunRecord) error     { return nil }

// TestOrientRejectsOutOfRangePair: a level or key outside int32 is an
// error naming the vertex, and no run starts.
func TestOrientRejectsOutOfRangePair(t *testing.T) {
	g := graph.Path(4)
	p := dist.NewProbe(countRuns{})
	defer p.Close()
	net := dist.NewNetwork(g).WithProbe(p)
	zeros := make([]int, g.N())
	if _, err := OrientByLevelKey(net, zeros, zeros, nil, nil); err != nil {
		t.Fatal(err)
	}
	if runs := p.Totals().Runs; runs != 1 {
		t.Fatalf("in-range pairs: %d runs, want 1", runs)
	}
	for _, c := range []struct{ v, level, key int }{
		{2, math.MaxInt32 + 1, 0},
		{1, math.MinInt32 - 1, 0},
		{3, 0, math.MaxInt32 + 1},
		{0, 0, math.MinInt32 - 1},
	} {
		levels, keys := make([]int, g.N()), make([]int, g.N())
		levels[c.v], keys[c.v] = c.level, c.key
		_, err := OrientByLevelKey(net, levels, keys, nil, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("vertex %d:", c.v)) {
			t.Errorf("level %d key %d at vertex %d: err = %v, want one naming the vertex", c.level, c.key, c.v, err)
		}
	}
	if runs := p.Totals().Runs; runs != 1 {
		t.Errorf("out-of-range pairs started %d runs", runs-1)
	}
}

func TestDecomposeForests(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for _, a := range []int{1, 3, 6} {
		g := graph.ForestUnion(250, a, rng)
		net := dist.NewNetworkPermuted(g, rng)
		fd, err := Decompose(net, a, DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		if err := fd.Validate(); err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		if fd.NumForests > DefaultEps.Threshold(a) {
			t.Errorf("a=%d: %d forests > %d (Lemma 2.2(2))", a, fd.NumForests, DefaultEps.Threshold(a))
		}
	}
}

func TestForestIndexOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	g := graph.ForestUnion(50, 2, rng)
	net := dist.NewNetwork(g)
	fd, err := Decompose(net, 2, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Forest(-1); err == nil {
		t.Error("negative forest index accepted")
	}
	if _, err := fd.Forest(fd.NumForests); err == nil {
		t.Error("out-of-range forest index accepted")
	}
}

func TestWaitColorFirstFreeIsLegal(t *testing.T) {
	// Appendix A / Lemma 2.2(1): greedy coloring along a complete acyclic
	// orientation with palette out-degree+1 is legal.
	rng := rand.New(rand.NewSource(205))
	g := graph.ForestUnion(300, 4, rng)
	net := dist.NewNetworkPermuted(g, rng)
	or, hp, err := CompleteAcyclicOrientation(net, 4, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := WaitColor(net, or, hp.Degree+1, RuleFirstFree)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegalColoring(wc.Colors); err != nil {
		t.Fatal(err)
	}
	if mc := graph.MaxColor(wc.Colors); mc > hp.Degree {
		t.Errorf("max color %d > %d", mc, hp.Degree)
	}
	length, err := or.Orientation(net).Length()
	if err != nil {
		t.Fatal(err)
	}
	if wc.Rounds > length+1 {
		t.Errorf("rounds %d > len+1 = %d (Theorem 3.2)", wc.Rounds, length+1)
	}
}

func TestWaitColorLeastUsedPigeonhole(t *testing.T) {
	// Theorem 3.2 core: with k colors, at most floor(m/k) parents share the
	// chosen color, so each color class has out-degree <= floor(m/k).
	rng := rand.New(rand.NewSource(206))
	g := graph.ForestUnion(300, 6, rng)
	net := dist.NewNetworkPermuted(g, rng)
	or, _, err := CompleteAcyclicOrientation(net, 6, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	sigma := or.Orientation(net)
	m := sigma.MaxOutDegree()
	for _, k := range []int{2, 3, 5} {
		wc, err := WaitColor(net, or, k, RuleLeastUsed)
		if err != nil {
			t.Fatal(err)
		}
		// Verify per-vertex: same-colored parents <= floor(m/k).
		for v := 0; v < g.N(); v++ {
			same := 0
			for _, u := range sigma.Parents(v) {
				if wc.Colors[u] == wc.Colors[v] {
					same++
				}
			}
			if same > m/k {
				t.Fatalf("k=%d vertex %d: %d same-colored parents > %d", k, v, same, m/k)
			}
		}
		if err := g.CheckArbdefectWitness(wc.Colors, sigma, m/k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestWaitColorRestoresDirs: a completed run hands every recorded parent
// slot back, so or.Dirs equals its pre-run copy under both rules, on an
// unfiltered and a label/active-filtered orientation.
func TestWaitColorRestoresDirs(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	g := graph.ForestUnion(300, 4, rng)
	net := dist.NewNetworkPermuted(g, rng)
	labels := make([]int, g.N())
	active := make([]bool, g.N())
	for v := range labels {
		labels[v] = v % 3
		active[v] = v%7 != 0
	}
	for _, f := range []struct {
		name   string
		labels []int
		active []bool
	}{{"flat", nil, nil}, {"filtered", labels, active}} {
		hp, err := ComputeHPartition(net, 4, DefaultEps, f.labels, f.active)
		if err != nil {
			t.Fatal(err)
		}
		or, err := OrientByLevelKey(net, hp.Level, net.IDs(), f.labels, f.active)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(or.Dirs)
		for _, rule := range []ChoiceRule{RuleFirstFree, RuleLeastUsed} {
			if _, err := WaitColor(net, or, hp.Degree+1, rule); err != nil {
				t.Fatalf("%s rule %d: %v", f.name, rule, err)
			}
			if !slices.Equal(or.Dirs, want) {
				t.Errorf("%s rule %d: the run left or.Dirs rewritten", f.name, rule)
			}
		}
	}
}

func TestWaitColorPaletteExhaustion(t *testing.T) {
	// Star oriented leaf->center... center has 0 parents; orient edges
	// from center towards leaves instead so center has many parents and a
	// palette of 1 must fail under RuleFirstFree once any parent uses it.
	g := graph.Star(5)
	sigma := graph.NewOrientation(g)
	for v := 1; v < 5; v++ {
		if err := sigma.Orient(0, v); err != nil { // leaves are parents of center
			t.Fatal(err)
		}
	}
	net := dist.NewNetwork(g)
	if _, err := WaitColor(net, resultOf(sigma), 1, RuleFirstFree); err == nil {
		t.Error("palette exhaustion not reported")
	}
}

func TestWaitColorRejectsCyclicOrientation(t *testing.T) {
	cyc, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	sigma := graph.NewOrientation(cyc)
	for v := 0; v < 4; v++ {
		_ = sigma.Orient(v, (v+1)%4)
	}
	net := dist.NewNetwork(cyc)
	if _, err := WaitColor(net, resultOf(sigma), 3, RuleFirstFree); err == nil {
		t.Error("cyclic orientation accepted")
	}
}

// TestWaitColorFailsBeyondLengthBound: the run's budget is the
// orientation's LengthBound, so an orientation longer than its bound
// fails like a cyclic one instead of running on.
func TestWaitColorFailsBeyondLengthBound(t *testing.T) {
	g := graph.Path(6)
	sigma := graph.NewOrientation(g)
	for v := 0; v+1 < g.N(); v++ {
		if err := sigma.Orient(v, v+1); err != nil { // towards the larger end
			t.Fatal(err)
		}
	}
	net := dist.NewNetwork(g)
	or := resultOf(sigma)
	if _, err := WaitColor(net, or, 2, RuleFirstFree); err != nil {
		t.Fatalf("length 5 within the n-1 bound: %v", err)
	}
	or.LengthBound = 2
	if _, err := WaitColor(net, or, 2, RuleFirstFree); !errors.Is(err, dist.ErrMaxRounds) {
		t.Fatalf("length 5 under bound 2: err = %v, want dist.ErrMaxRounds", err)
	}
}

// resultOf is a hand-built orientation in the form OrientByLevelKey
// returns: sigma's direction column in the unfiltered engine layout,
// with the n-1 length bound of any (level, key) orientation.
func resultOf(sigma *graph.Orientation) *OrientResult {
	g := sigma.Graph()
	or := &OrientResult{Dirs: []int64{}, LengthBound: g.N() - 1}
	for v := 0; v < g.N(); v++ {
		for p, u := range g.Neighbors(v) {
			var d int64
			switch {
			case sigma.IsParentPort(v, p):
				d = +1
			case sigma.IsParent(u, v):
				d = -1
			}
			or.Dirs = append(or.Dirs, d)
		}
	}
	return or
}

func TestChoiceRuleUnknown(t *testing.T) {
	if _, err := ChoiceRule(99).choose([]int{0}); err == nil {
		t.Error("unknown rule accepted")
	}
}
