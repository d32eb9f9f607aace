package recolor

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/field"
	"repro/internal/graph"
)

// TestRecolorOnceCountsExactly pins the per-call accounting of the eval
// counters against the step's arithmetic: one evaluation for the node's
// own color plus one per conflict entry that differs from it (same-color
// entries skip the neighbor row entirely).
func TestRecolorOnceCountsExactly(t *testing.T) {
	step := Step{Q: 23, D: 1}
	fam, err := field.Families(step.Q, step.D)
	if err != nil {
		t.Fatal(err)
	}
	b := fam.Block(-1)
	var sc stepScratch
	sc.grow(step.Q)
	x := 333
	conflicts := []int{3, 88, x, 40, x, 77}
	var c field.EvalCounters
	sc.recolorOnce(&b, x, conflicts, &c)
	want := int64(1 + 4) // own row + the 4 conflicts differing from x
	if got := c.Hits() + c.Batched(); got != want {
		t.Fatalf("counted %d evaluations, want %d", got, want)
	}
	if c.Fallbacks() != 0 || c.Batched() != 0 {
		t.Fatalf("batched=%d fallbacks=%d on a fully cached family, want 0/0", c.Batched(), c.Fallbacks())
	}
}

// TestRecolorOnceCountsBatched forces the beyond-table path: function
// indices at or past the cached row table must land in the batched
// bucket - the kernel materializes them division-free - and the scalar
// fallback bucket must stay empty on every input.
func TestRecolorOnceCountsBatched(t *testing.T) {
	plan := Plan(100000, 16, 0)
	step := plan.Steps[0]
	fam, err := field.Families(step.Q, step.D)
	if err != nil {
		t.Fatal(err)
	}
	if fam.RowsCached() >= fam.Size() {
		t.Skipf("step %+v fully cached; beyond-table path not exercised", step)
	}
	b := fam.Block(-1)
	var sc stepScratch
	sc.grow(step.Q)
	x := b.Cached() + 41 // own row: beyond the table, batch-evaluated
	conflicts := []int{12, b.Cached() + 7, fam.Size() - 1}
	var c field.EvalCounters
	sc.recolorOnce(&b, x, conflicts, &c)
	if c.Hits() != 1 || c.Batched() != 3 {
		t.Fatalf("hits=%d batched=%d, want 1/3", c.Hits(), c.Batched())
	}
	if c.Fallbacks() != 0 {
		t.Fatalf("%d scalar fallbacks; the kernel path must never take one", c.Fallbacks())
	}
}

// TestEvalStatsWordMatchesBoxed runs a RunUniform workload with counting
// enabled and pins the per-step hit/batched/fallback totals: evaluation
// counts are part of the algorithm, not the transport, and must be exact
// under -race (atomic counters across the worker pool). The frozen
// counts are the ones the boxed []any plane recorded on this instance
// before it was deleted.
func TestEvalStatsWordMatchesBoxed(t *testing.T) {
	defer func() {
		field.SetEvalStats(false)
		field.ResetEvalStats()
	}()
	// Low degree relative to n, so the Linial schedule is non-trivial
	// (Plan is empty once M0 is already within the target space).
	rng := rand.New(rand.NewSource(61))
	g := graph.RandomRegularish(1000, 4, rng)
	n := g.N()
	p := Params{Color: -1, M0: n, DegBound: g.MaxDegree(), TargetDefect: 0}
	if len(Plan(p.M0, p.DegBound, p.TargetDefect).Steps) == 0 {
		t.Fatal("schedule degenerate; pick a sparser test graph")
	}

	field.SetEvalStats(true)
	field.ResetEvalStats()
	net := dist.NewNetworkPermuted(g, rand.New(rand.NewSource(7)))
	dst := make([]int, n)
	if _, err := RunUniform(net, p, nil, nil, nil, dst); err != nil {
		t.Fatal(err)
	}
	got := field.EvalStatsSnapshot()
	want := []field.EvalStat{{Step: 0, Q: 11, D: 2, Hits: 4994, Batched: 0, Fallbacks: 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("eval stats diverge from the frozen boxed run:\ngot    %#v\nfrozen %#v", got, want)
	}
}

// TestStepFamiliesPaletteHitRate pins the palette-sized row tables end
// to end: stepFamilies sizes every step's table to its actual palette
// bound (m_0 = M0, m_i = Q_{i-1}^2), so a full run whose bounds fit
// under the growth ceiling evaluates with zero Horner fallbacks - hit
// rate 1 on every step counter.
func TestStepFamiliesPaletteHitRate(t *testing.T) {
	defer func() {
		field.SetEvalStats(false)
		field.ResetEvalStats()
	}()
	rng := rand.New(rand.NewSource(71))
	g := graph.RandomRegularish(2000, 4, rng)
	n := g.N()
	p := Params{Color: -1, M0: n, DegBound: g.MaxDegree(), TargetDefect: 0}
	plan := Plan(p.M0, p.DegBound, p.TargetDefect)
	if len(plan.Steps) == 0 {
		t.Fatal("schedule degenerate; pick a sparser test graph")
	}

	fams := stepFamilies(plan)
	palette := plan.M0
	for i, fam := range fams {
		if want := min(palette, fam.Size()); fam.RowsCached() < want {
			t.Fatalf("step %d table covers %d rows, palette bound is %d", i, fam.RowsCached(), want)
		}
		palette = plan.Steps[i].Q * plan.Steps[i].Q
	}

	field.SetEvalStats(true)
	field.ResetEvalStats()
	net := dist.NewNetworkPermuted(g, rand.New(rand.NewSource(9)))
	dst := make([]int, n)
	if _, err := RunUniform(net, p, nil, nil, nil, dst); err != nil {
		t.Fatal(err)
	}
	snap := field.EvalStatsSnapshot()
	if len(snap) == 0 {
		t.Fatal("counted run registered no counters")
	}
	for _, s := range snap {
		if s.Total() == 0 {
			continue
		}
		if s.Fallbacks != 0 || s.HitRate() != 1 {
			t.Fatalf("step %d (q=%d d=%d): %d fallbacks, hit rate %v; want 0 / 1",
				s.Step, s.Q, s.D, s.Fallbacks, s.HitRate())
		}
	}
}

// TestEvalStatsDisabledCostsNothing pins the opt-out: with stats
// disabled the algorithm resolves no counters and a run registers
// nothing.
func TestEvalStatsDisabledCostsNothing(t *testing.T) {
	field.SetEvalStats(false)
	field.ResetEvalStats()
	rng := rand.New(rand.NewSource(62))
	g := graph.Gnp(100, 0.05, rng)
	p := Params{Color: -1, M0: g.N(), DegBound: g.MaxDegree(), TargetDefect: 0}
	net := dist.NewNetworkPermuted(g, rand.New(rand.NewSource(8)))
	dst := make([]int, g.N())
	if _, err := RunUniform(net, p, nil, nil, nil, dst); err != nil {
		t.Fatal(err)
	}
	if snap := field.EvalStatsSnapshot(); len(snap) != 0 {
		t.Fatalf("disabled run registered counters: %+v", snap)
	}
}
