package distcolor

import (
	"fmt"
	"testing"
)

// Integration soak: every major entry point on every workload family, with
// verification after each run - the cross-module test matrix, so a change
// in any package is exercised through the public API on every family.

type family struct {
	name string
	gen  func(seed int64) *Graph
	arb  int // usable arboricity parameter
}

func families() []family {
	return []family{
		{"forest-union", func(s int64) *Graph { return GenForestUnion(400, 3, s) }, 3},
		{"tree", func(s int64) *Graph { return GenTree(400, s) }, 1},
		{"grid", func(s int64) *Graph { return GenGrid(20, 20) }, 2},
		{"powerlaw", func(s int64) *Graph { return GenPowerLaw(400, 3, s) }, 3},
		{"star-forest", func(s int64) *Graph { return GenStarForest(400, 2, 3, 80, s) }, 4},
		{"gnp-sparse", func(s int64) *Graph { return GenGnp(400, 0.008, s) }, 4},
		{"unit-disk", func(s int64) *Graph { return GenUnitDisk(300, 20, 1.6, s) }, 5},
		{"path", func(s int64) *Graph { return GenPath(400) }, 1},
	}
}

func TestIntegrationColoringAcrossFamilies(t *testing.T) {
	for _, f := range families() {
		for seed := int64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("%s/seed=%d", f.name, seed)
			t.Run(name, func(t *testing.T) {
				g := f.gen(seed)
				// Guard: arboricity parameter must be workable (>= the
				// peeling requirement); bump until the H-partition accepts.
				a := f.arb
				for {
					if _, err := HPartition(g, a, Options{Seed: seed}); err == nil {
						break
					}
					a++
					if a > g.N() {
						t.Fatal("no workable arboricity bound")
					}
				}
				opts := Options{Seed: seed, PermuteIDs: true}

				res, err := ColorOA(g, a, 2.0/3.0, opts)
				if err != nil {
					t.Fatalf("ColorOA: %v", err)
				}
				if err := VerifyLegal(g, res.Colors); err != nil {
					t.Fatalf("ColorOA verify: %v", err)
				}
				one, err := OneShot(g, a, opts)
				if err != nil {
					t.Fatalf("OneShot: %v", err)
				}
				if err := VerifyLegal(g, one.Colors); err != nil {
					t.Fatalf("OneShot verify: %v", err)
				}
				mis, err := MIS(g, a, 0.5, opts)
				if err != nil {
					t.Fatalf("MIS: %v", err)
				}
				if err := VerifyMIS(g, mis.InMIS); err != nil {
					t.Fatalf("MIS verify: %v", err)
				}
				ad, err := ArbDefective(g, a, 2, 2, opts)
				if err != nil {
					t.Fatalf("ArbDefective: %v", err)
				}
				if err := VerifyArbDefective(g, ad.Colors, 2*ad.Bound); err != nil {
					t.Fatalf("ArbDefective verify: %v", err)
				}
				po, err := PartialOrient(g, a, 2, opts)
				if err != nil {
					t.Fatalf("PartialOrient: %v", err)
				}
				if po.Deficit > a/2 {
					t.Fatalf("PartialOrient deficit %d > %d", po.Deficit, a/2)
				}
			})
		}
	}
}

func TestIntegrationRoundsScaleWithLogN(t *testing.T) {
	// Theorem 4.3's n-dependence: rounds grow ~log n at fixed a. Compare
	// n and 4n; allow slack for constant phases.
	const a = 4
	rounds := map[int]int{}
	for _, n := range []int{300, 1200} {
		g := GenForestUnion(n, a, 77)
		res, err := ColorOA(g, a, 2.0/3.0, Options{Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyLegal(g, res.Colors); err != nil {
			t.Fatal(err)
		}
		rounds[n] = res.Rounds
	}
	// log(1200)/log(300) ~ 1.24; anything below 2.5x passes comfortably,
	// while a linear-in-n dependence (4x) fails.
	if rounds[1200] > rounds[300]*5/2 {
		t.Errorf("rounds scaled superlogarithmically: %v", rounds)
	}
}

func TestIntegrationColorsIndependentOfN(t *testing.T) {
	const a = 6
	var prev int
	for _, n := range []int{300, 600, 1200} {
		g := GenForestUnion(n, a, 99)
		res, err := ColorOA(g, a, 2.0/3.0, Options{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && res.NumColors > prev*2 {
			t.Errorf("n=%d: colors %d doubled from %d (should be O(a), n-independent)",
				n, res.NumColors, prev)
		}
		prev = res.NumColors
	}
}

func TestIntegrationDisconnectedGraph(t *testing.T) {
	// Multiple components, including isolated vertices.
	b := NewBuilder(30)
	for v := 0; v < 10; v++ {
		_ = b.AddEdge(v, (v+1)%10) // a 10-cycle
	}
	for v := 10; v < 19; v++ {
		_ = b.AddEdge(v, v+1) // a path
	}
	g := b.Build() // vertices 20..29 isolated
	res, err := ColorOA(g, 2, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyLegal(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	mis, err := MIS(g, 2, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, mis.InMIS); err != nil {
		t.Fatal(err)
	}
	for v := 20; v < 30; v++ {
		if !mis.InMIS[v] {
			t.Errorf("isolated vertex %d not in MIS", v)
		}
	}
}

func TestIntegrationCompleteGraphExtreme(t *testing.T) {
	// K_n has arboricity ceil(n/2); the pipeline must still work when
	// a ~ n (no sparsity to exploit).
	g := GenComplete(20)
	a := 10
	res, err := ColorTradeoff(g, a, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyLegal(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors < 20 {
		t.Errorf("K_20 colored with %d < 20 colors (impossible)", res.NumColors)
	}
}
