package recolor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/field"
)

// stepRoot builds the step's agreement kernel.
func stepRoot(step Step) *field.Roots {
	r, err := field.NewRoots(step.Q, step.D)
	if err != nil {
		panic(fmt.Sprintf("recolor: invalid step %+v: %v", step, err))
	}
	return r
}

// stepPalette is min(Q^(D+1), 2^20): the colors a test draws for a
// step, every index of its family below the cap.
func stepPalette(step Step) int {
	m := 1
	for i := 0; i <= step.D && m < 1<<20; i++ {
		m *= step.Q
	}
	return min(m, 1<<20)
}

// recolorOnce is the convenience form of the step used by tests: it
// builds the step's agreement kernel and runs it on fresh scratch. The
// caller's conflictColors slice is not modified.
func recolorOnce(step Step, x int, conflictColors []int) int {
	var sc stepScratch
	sc.grow(step.Q)
	return stepRoot(step).Recolor(sc.agrees, sc.row, x, conflictColors, nil)
}

// TestRecolorOnceMatchesReference proves the agreement kernel's step is
// bit-for-bit identical to the seed implementation across realistic and
// adversarial (step, color, conflicts) combinations, including every
// step of the schedules Plan(M0, deg, t) emits for M0 in {2*10^4,
// 5*10^4, 10^6, 10^7}, deg in {2, 4, 8, 16, 24, 64} and t in {0, deg/4,
// deg/2}.
func TestRecolorOnceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	steps := []Step{
		{Q: 5, D: 1}, {Q: 11, D: 2}, {Q: 23, D: 1}, {Q: 29, D: 3},
		{Q: 101, D: 2}, {Q: 127, D: 1},
	}
	// Include the actual steps of planned schedules.
	for _, plan := range []Schedule{
		Plan(2000, 24, 0), Plan(100000, 16, 0), Plan(1000, 24, 12),
	} {
		steps = append(steps, plan.Steps...)
	}
	for _, m0 := range []int{20000, 50000, 1000000, 10000000} {
		for _, deg := range []int{2, 4, 8, 16, 24, 64} {
			for _, tgt := range []int{0, deg / 4, deg / 2} {
				steps = append(steps, Plan(m0, deg, tgt).Steps...)
			}
		}
	}
	for _, step := range steps {
		m := stepPalette(step)
		for trial := 0; trial < 50; trial++ {
			x := rng.Intn(m)
			conflicts := make([]int, rng.Intn(24))
			for i := range conflicts {
				if rng.Intn(4) == 0 {
					conflicts[i] = x // same-colored neighbors carry over
				} else {
					conflicts[i] = rng.Intn(m)
				}
			}
			want := recolorOnceRef(step, x, conflicts)
			got := recolorOnce(step, x, conflicts)
			if got != want {
				t.Fatalf("step %+v x=%d conflicts=%v: got %d, ref %d", step, x, conflicts, got, want)
			}
		}
	}
}

// TestRecolorOnceZeroAllocs asserts the steady-state step loop performs
// zero allocations: warm scratch + the step's kernel + reused conflict
// buffer is the exact shape of Algo.StepWords after the first round.
// (101, 2) is the first step of Plan(10^6, 16, 0) and (13, 3) a ladder
// step.
func TestRecolorOnceZeroAllocs(t *testing.T) {
	for _, step := range []Step{{Q: 23, D: 1}, {Q: 11, D: 2}, {Q: 101, D: 2}, {Q: 13, D: 3}} {
		r := stepRoot(step)
		var sc stepScratch
		sc.grow(step.Q)
		m := stepPalette(step)
		conflicts := []int{3, 88, 121, 40, 501 % m, 3, 77, 250, 311, 40}
		x := 333 % m
		r.Recolor(sc.agrees, sc.row, x, conflicts, nil) // warm up
		allocs := testing.AllocsPerRun(100, func() {
			r.Recolor(sc.agrees, sc.row, x, conflicts, nil)
		})
		if allocs != 0 {
			t.Errorf("step %+v: %v allocs/op in steady state, want 0", step, allocs)
		}
	}
}

// TestPlanCapBeforeAppend is the regression test for the seed safety
// net, which appended a 65th step before breaking and silently truncated
// the schedule: with a cap of c, a truncated plan must hold exactly c
// steps, be flagged, and fail Validate.
func TestPlanCapBeforeAppend(t *testing.T) {
	full := planCapped(1<<60, 1000, 500, maxScheduleSteps)
	if full.Truncated {
		t.Fatalf("real schedule truncated: %d steps", len(full.Steps))
	}
	if len(full.Steps) < 3 {
		t.Fatalf("want a multi-step schedule to truncate, got %d steps", len(full.Steps))
	}
	for c := 1; c < len(full.Steps); c++ {
		s := planCapped(1<<60, 1000, 500, c)
		if !s.Truncated {
			t.Fatalf("cap=%d: schedule not marked truncated", c)
		}
		if len(s.Steps) != c {
			t.Fatalf("cap=%d: %d steps; the cap must apply before append", c, len(s.Steps))
		}
		if err := s.Validate(); err == nil {
			t.Fatalf("cap=%d: truncated schedule passed Validate", c)
		}
	}
}

// TestPlanNeverTruncatesInPractice sweeps adversarial parameters and
// checks the O(log* m0) bound keeps every real schedule far below the cap.
func TestPlanNeverTruncatesInPractice(t *testing.T) {
	for _, m0 := range []int{2, 1000, 1 << 30, 1 << 62} {
		for _, deg := range []int{1, 10, 1000, 1 << 20} {
			for _, d := range []int{0, 1, deg / 2} {
				s := Plan(m0, deg, d)
				if s.Truncated {
					t.Errorf("Plan(%d,%d,%d) truncated", m0, deg, d)
				}
				if len(s.Steps) > maxScheduleSteps {
					t.Errorf("Plan(%d,%d,%d) has %d steps > cap", m0, deg, d, len(s.Steps))
				}
			}
		}
	}
}

// TestPlanMemoizationIsStable checks the memoized plan is identical to a
// fresh computation (same steps, same flags).
func TestPlanMemoizationIsStable(t *testing.T) {
	for _, tc := range []struct{ m0, deg, d int }{
		{2000, 24, 0}, {100000, 16, 0}, {1000, 24, 12},
	} {
		cached := Plan(tc.m0, tc.deg, tc.d)
		again := Plan(tc.m0, tc.deg, tc.d)
		fresh := planCapped(tc.m0, tc.deg, tc.d, maxScheduleSteps)
		if len(cached.Steps) != len(fresh.Steps) || cached.Truncated != fresh.Truncated {
			t.Fatalf("Plan(%d,%d,%d): cached %+v != fresh %+v", tc.m0, tc.deg, tc.d, cached, fresh)
		}
		for i := range cached.Steps {
			if cached.Steps[i] != fresh.Steps[i] || cached.Steps[i] != again.Steps[i] {
				t.Fatalf("Plan(%d,%d,%d) step %d differs", tc.m0, tc.deg, tc.d, i)
			}
		}
	}
}
