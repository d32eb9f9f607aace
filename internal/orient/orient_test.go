package orient

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
)

func TestPartialOrientationTheorem35(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	eps := forest.DefaultEps
	for _, a := range []int{2, 4, 8} {
		for _, tt := range []int{1, 2, 4} {
			g := graph.ForestUnion(400, a, rng)
			net := dist.NewNetworkPermuted(g, rng)
			res, err := Partial(net, a, tt, eps, nil, nil)
			if err != nil {
				t.Fatalf("a=%d t=%d: %v", a, tt, err)
			}
			s := MeasureWithin(res.Orient.Orientation(net), nil, nil)
			if !s.Acyclic {
				t.Fatalf("a=%d t=%d: cyclic orientation", a, tt)
			}
			if s.OutDegree > eps.Threshold(a) {
				t.Errorf("a=%d t=%d: out-degree %d > %d", a, tt, s.OutDegree, eps.Threshold(a))
			}
			if s.Deficit > a/tt {
				t.Errorf("a=%d t=%d: deficit %d > floor(a/t)=%d", a, tt, s.Deficit, a/tt)
			}
			// Length <= numLevels * (palette + 1).
			if lim := res.HP.NumLevels * (res.LevelPalette + 1); s.Length > lim {
				t.Errorf("a=%d t=%d: length %d > levels*palette = %d", a, tt, s.Length, lim)
			}
			// O(log n) rounds: H-partition levels dominate.
			if lim := 6*int(math.Log2(float64(g.N()))) + 20; res.Tally.Rounds() > lim {
				t.Errorf("a=%d t=%d: %d rounds > %d", a, tt, res.Tally.Rounds(), lim)
			}
		}
	}
}

func TestPartialRejectsBadT(t *testing.T) {
	net := dist.NewNetwork(graph.Path(4))
	if _, err := Partial(net, 1, 0, forest.DefaultEps, nil, nil); err == nil {
		t.Error("t=0 accepted")
	}
}

func TestCompleteOrientationLemma33(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	eps := forest.DefaultEps
	for _, method := range []LevelColoring{LevelLinial, LevelDeltaPlusOne} {
		a := 4
		g := graph.ForestUnion(300, a, rng)
		net := dist.NewNetworkPermuted(g, rng)
		res, err := Complete(net, a, eps, method, nil, nil)
		if err != nil {
			t.Fatalf("method %d: %v", method, err)
		}
		s := MeasureWithin(res.Orient.Orientation(net), nil, nil)
		if !s.Acyclic {
			t.Fatal("cyclic orientation (Lemma 3.3 violated)")
		}
		if s.Deficit != 0 {
			t.Errorf("method %d: complete orientation has deficit %d", method, s.Deficit)
		}
		if s.OutDegree > eps.Threshold(a) {
			t.Errorf("method %d: out-degree %d > %d", method, s.OutDegree, eps.Threshold(a))
		}
		if lim := res.HP.NumLevels * (res.LevelPalette + 1); s.Length > lim {
			t.Errorf("method %d: length %d > %d", method, s.Length, lim)
		}
	}
}

func TestCompleteDeltaPlusOneShorterThanLinial(t *testing.T) {
	// Lemma 3.3's point: theta+1 level colors give length O(a log n),
	// whereas Linial's theta^2 level colors allow longer paths. The
	// palette comparison must reflect this.
	rng := rand.New(rand.NewSource(502))
	a := 6
	g := graph.ForestUnion(500, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	rLin, err := Complete(net, a, forest.DefaultEps, LevelLinial, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rDpo, err := Complete(net, a, forest.DefaultEps, LevelDeltaPlusOne, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rDpo.LevelPalette >= rLin.LevelPalette {
		t.Errorf("Delta+1 palette %d not smaller than Linial palette %d",
			rDpo.LevelPalette, rLin.LevelPalette)
	}
	if rDpo.LevelPalette != forest.DefaultEps.Threshold(a)+1 {
		t.Errorf("Delta+1 level palette %d != theta+1 = %d",
			rDpo.LevelPalette, forest.DefaultEps.Threshold(a)+1)
	}
}

func TestCompleteUnknownMethod(t *testing.T) {
	net := dist.NewNetwork(graph.Path(4))
	if _, err := Complete(net, 1, forest.DefaultEps, LevelColoring(99), nil, nil); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestPartialWithinLabels(t *testing.T) {
	// Two subgraphs (even/odd hubs of a forest union) oriented in
	// parallel; deficit measured within labels must obey Theorem 3.5 and
	// cross-label edges must stay unoriented.
	rng := rand.New(rand.NewSource(503))
	a := 4
	g := graph.ForestUnion(300, a, rng)
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = v % 2
	}
	net := dist.NewNetworkPermuted(g, rng)
	res, err := Partial(net, a, 2, forest.DefaultEps, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigma := res.Orient.Orientation(net)
	s := MeasureWithin(sigma, labels, nil)
	if s.OutDegree > forest.DefaultEps.Threshold(a) {
		t.Errorf("out-degree %d too large", s.OutDegree)
	}
	if s.Deficit > a/2 {
		t.Errorf("within-label deficit %d > %d", s.Deficit, a/2)
	}
	for _, e := range g.Edges() {
		if labels[e[0]] != labels[e[1]] && sigma.DirOf(e[0], e[1]) != graph.Unoriented {
			t.Fatalf("cross-label edge %v oriented", e)
		}
	}
}

func TestMeasureWithinIgnoresInactive(t *testing.T) {
	g := graph.Path(4)
	sigma := graph.NewOrientation(g)
	_ = sigma.Orient(0, 1)
	_ = sigma.Orient(1, 2)
	_ = sigma.Orient(2, 3)
	active := []bool{true, true, false, false}
	s := MeasureWithin(sigma, nil, active)
	if s.OutDegree != 1 || s.Deficit != 0 {
		t.Errorf("stats with inactive vertices wrong: %+v", s)
	}
}

func TestPartialLengthScalesWithT(t *testing.T) {
	// Theorem 3.5: length O(t^2 log n). Larger t should allow longer
	// paths via bigger per-level palettes; verify palette grows with t.
	rng := rand.New(rand.NewSource(504))
	a := 16
	g := graph.ForestUnion(400, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	var prevPalette int
	for _, tt := range []int{1, 2, 4, 8} {
		res, err := Partial(net, a, tt, forest.DefaultEps, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.LevelPalette < prevPalette {
			t.Errorf("t=%d: palette %d shrank from %d", tt, res.LevelPalette, prevPalette)
		}
		prevPalette = res.LevelPalette
	}
}

// TestOrientationsWithinLengthBound: every Partial- and
// Complete-Orientation, with and without labels, assembles into an
// acyclic orientation no longer than the LengthBound its wait-for-parents
// runs are budgeted on.
func TestOrientationsWithinLengthBound(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	a := 4
	g := graph.ForestUnion(300, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = rng.Intn(3)
	}
	type orientCase struct {
		name string
		run  func(labels []int) (*Result, error)
	}
	var cases []orientCase
	for _, tt := range []int{1, 2, 4} {
		cases = append(cases, orientCase{fmt.Sprintf("partial(t=%d)", tt), func(labels []int) (*Result, error) {
			return Partial(net, a, tt, forest.DefaultEps, labels, nil)
		}})
	}
	for _, m := range []LevelColoring{LevelLinial, LevelDeltaPlusOne} {
		cases = append(cases, orientCase{fmt.Sprintf("complete(%d)", m), func(labels []int) (*Result, error) {
			return Complete(net, a, forest.DefaultEps, m, labels, nil)
		}})
	}
	for _, c := range cases {
		name := c.name
		for _, ls := range [][]int{nil, labels} {
			res, err := c.run(ls)
			if err != nil {
				t.Fatalf("%s labels=%t: %v", name, ls != nil, err)
			}
			s := MeasureWithin(res.Orient.Orientation(net), ls, nil)
			if !s.Acyclic || s.Length > res.Orient.LengthBound {
				t.Errorf("%s labels=%t: acyclic=%t length %d, bound %d",
					name, ls != nil, s.Acyclic, s.Length, res.Orient.LengthBound)
			}
			if want := res.HP.NumLevels * (res.LevelPalette + 1); res.Orient.LengthBound != want {
				t.Errorf("%s labels=%t: LengthBound %d, want levels*(palette+1) = %d",
					name, ls != nil, res.Orient.LengthBound, want)
			}
		}
	}
}
