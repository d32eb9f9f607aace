// Package recolor implements the one-round recoloring step that underlies
// Linial's O(Delta^2)-coloring, Kuhn's defective coloring (Lemma 2.1), and
// the paper's arbdefective Arb-Kuhn algorithm (Section 5, Algorithm 3,
// Appendix B).
//
// One step: a vertex with color x in [M] and conflict-neighbor colors
// y_1..y_delta picks a point alpha of a function family {phi_c : A -> B}
// minimizing the number of conflict neighbors whose function agrees with
// phi_x at alpha, and adopts the new color (alpha, phi_x(alpha)) in
// [|A| * |B|]. With a polynomial family of degree D over F_q (pairwise
// agreement <= D), the pigeonhole argument of Appendix B guarantees: if the
// input coloring has defect dIn and q*(dOut-dIn+1) > D*(degBound-dIn), the
// output coloring has defect at most dOut. "Defect" counts same-colored
// conflict neighbors: all neighbors for the defective variant, parents
// under an acyclic orientation for the arbdefective variant.
//
// The step never compares whole functions: phi_x and phi_y agree exactly
// at the roots of phi_x - phi_y, so each conflict neighbor adds one at
// each of those at most D points (at every point when the two colors
// index the same polynomial), and field.Roots counts them per vertex
// step - in closed form for D <= 2 - without a row table.
//
// A Schedule is the full deterministic iteration plan from an initial
// M0-coloring down to the terminal color count; every node derives the same
// schedule locally from (M0, degBound, targetDefect), so no communication
// is spent on coordination. The number of steps is O(log* M0).
package recolor

import (
	"fmt"
	"sync"

	"repro/internal/field"
)

// maxDegreeSearch bounds the polynomial-degree search per step.
const maxDegreeSearch = 64

// maxScheduleSteps bounds the number of steps a schedule may contain.
// Real schedules are O(log* m0) and never approach it; hitting the cap
// means the planner failed to converge, and the resulting schedule is
// marked Truncated (its defect guarantee is void, and Validate rejects
// it) instead of being silently cut short.
const maxScheduleSteps = 64

// Step is one recoloring round: use the polynomial family over F_q with
// degree bound D; after the step the cumulative defect bound is DefectOut
// and the color count is Q*Q.
type Step struct {
	Q         int
	D         int
	DefectOut int
}

// Schedule is the deterministic plan for a recoloring run.
type Schedule struct {
	// M0 is the initial number of colors (n when starting from IDs).
	M0 int
	// DegBound is the bound on the number of conflict neighbors
	// (Delta for the defective variant, max out-degree for arbdefective).
	DegBound int
	// TargetDefect is the final allowed defect d.
	TargetDefect int
	// Steps is the per-round plan; empty when the input already suffices.
	Steps []Step
	// Truncated reports that planning hit maxScheduleSteps before
	// converging: the schedule's defect guarantee does not hold, and
	// Validate returns an error for it.
	Truncated bool
}

// FinalColors returns the number of colors after executing the schedule.
func (s Schedule) FinalColors() int {
	if len(s.Steps) == 0 {
		if s.TargetDefect >= s.DegBound {
			return 1
		}
		return s.M0
	}
	q := s.Steps[len(s.Steps)-1].Q
	return q * q
}

// Rounds returns the number of communication rounds the schedule costs.
func (s Schedule) Rounds() int { return len(s.Steps) }

// Validate checks the per-step pigeonhole preconditions; it is used by
// tests and by callers composing schedules.
func (s Schedule) Validate() error {
	if s.Truncated {
		return fmt.Errorf("recolor: schedule for (m0=%d, degBound=%d, target=%d) truncated at %d steps; defect guarantee void",
			s.M0, s.DegBound, s.TargetDefect, len(s.Steps))
	}
	m := s.M0
	dIn := 0
	for i, st := range s.Steps {
		if !field.IsPrime(st.Q) {
			return fmt.Errorf("recolor: step %d modulus %d not prime", i, st.Q)
		}
		if st.DefectOut < dIn || st.DefectOut > s.TargetDefect {
			return fmt.Errorf("recolor: step %d defect %d outside [%d,%d]", i, st.DefectOut, dIn, s.TargetDefect)
		}
		// Family must index all current colors.
		if !powAtLeast(st.Q, st.D+1, m) {
			return fmt.Errorf("recolor: step %d family size q^%d < M=%d", i, st.D+1, m)
		}
		// Pigeonhole condition q*(dOut-dIn+1) > D*(degBound-dIn).
		if st.Q*(st.DefectOut-dIn+1) <= st.D*(s.DegBound-dIn) {
			return fmt.Errorf("recolor: step %d violates pigeonhole condition", i)
		}
		m = st.Q * st.Q
		dIn = st.DefectOut
	}
	return nil
}

// powAtLeast reports whether q^e >= m without overflow.
func powAtLeast(q, e, m int) bool {
	acc := 1
	for i := 0; i < e; i++ {
		if acc >= (m+q-1)/q+1 || acc > (1<<62)/q {
			return true
		}
		acc *= q
		if acc >= m {
			return true
		}
	}
	return acc >= m
}

// intRootCeil returns the smallest q >= 2 with q^e >= m.
func intRootCeil(m, e int) int {
	if m <= 1 {
		return 2
	}
	lo, hi := 2, 2
	for !powAtLeast(hi, e, m) {
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if powAtLeast(mid, e, m) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// minDeltaForQ returns the smallest defect increment delta >= 0 such that
// q*(delta+1) > d*(degBound-dIn), or -1 if none is needed (q already large).
func minDeltaForQ(q, d, degBound, dIn int) int {
	need := d * (degBound - dIn)
	if need < 0 {
		need = 0
	}
	// smallest delta with q*(delta+1) > need  <=>  delta+1 > need/q.
	delta := need / q
	if q*(delta+1) <= need {
		delta++
	}
	return delta
}

// Plan computes the recoloring schedule for an initial legal m0-coloring on
// a graph whose conflict-neighborhood size is at most degBound, targeting
// final defect targetDefect.
//
// Strategy (planned greedily per step rather than by the closed-form
// parameter choices of Lemma 2.1; the bounds below are what the plan
// reaches): while the color count is large, the family-size constraint
// q^(D+1) >= M dominates, so greedy steps spend the minimum defect
// budget compatible with the q forced by M; once no cheap step makes
// progress, a final step spends the entire remaining budget, reaching
// ~( (degBound-dIn) / (remaining+1) )^2 colors. For
// targetDefect = 0 this degenerates to Linial's algorithm with terminal
// color count ~NextPrime(degBound+1)^2 = O(degBound^2); for targetDefect =
// floor(degBound/p) it gives O(p^2) colors. Steps number O(log* m0).
func Plan(m0, degBound, targetDefect int) Schedule {
	key := planKey{m0, degBound, targetDefect}
	planMu.RLock()
	s, ok := planCache[key]
	planMu.RUnlock()
	if ok {
		return s
	}
	s = planCapped(m0, degBound, targetDefect, maxScheduleSteps)
	planMu.Lock()
	planCache[key] = s
	planMu.Unlock()
	return s
}

// planKey identifies a schedule by the parameters every node derives it
// from; all nodes of a run share one memoized (immutable) plan.
type planKey struct{ m0, degBound, targetDefect int }

var (
	planMu    sync.RWMutex
	planCache = map[planKey]Schedule{}
)

// planCapped computes the schedule with an explicit step cap (tests use a
// small cap to exercise the truncation path).
func planCapped(m0, degBound, targetDefect, maxSteps int) Schedule {
	s := Schedule{M0: m0, DegBound: degBound, TargetDefect: targetDefect}
	if degBound < 0 || m0 < 1 {
		return s
	}
	if targetDefect >= degBound {
		// Every vertex may conflict with all conflict neighbors: a single
		// color suffices, zero rounds (handled by the runner).
		return s
	}
	m := m0
	dCur := 0
	for {
		best := Step{}
		bestDelta := -1
		// Greedy: minimal-budget step at the q forced by the family-size
		// constraint, spending at most half the remaining budget.
		remaining := targetDefect - dCur
		for d := 1; d <= maxDegreeSearch; d++ {
			q := field.NextPrime(intRootCeil(m, d+1))
			if q*q >= m {
				continue // no progress at this degree
			}
			delta := minDeltaForQ(q, d, degBound, dCur)
			if delta > remaining/2 {
				continue
			}
			if bestDelta < 0 || delta < bestDelta || (delta == bestDelta && q < best.Q) {
				best = Step{Q: q, D: d, DefectOut: dCur + delta}
				bestDelta = delta
			}
		}
		if bestDelta < 0 {
			// Final rule: spend the entire remaining budget.
			found := false
			for d := 1; d <= maxDegreeSearch; d++ {
				qDefect := (d*(degBound-dCur))/(targetDefect-dCur+1) + 1
				qSize := intRootCeil(m, d+1)
				q := field.NextPrime(max(qDefect, qSize))
				if q*q >= m {
					continue
				}
				if !found || q < best.Q {
					best = Step{Q: q, D: d, DefectOut: targetDefect}
					found = true
				}
			}
			if !found {
				break // terminal: no step reduces the color count
			}
		}
		if len(s.Steps) >= maxSteps {
			// Cap BEFORE appending: a truncated schedule must not carry a
			// step past the cap, and the truncation must be surfaced
			// (Validate rejects it) rather than silently voiding the
			// defect guarantee.
			s.Truncated = true
			break
		}
		s.Steps = append(s.Steps, best)
		m = best.Q * best.Q
		dCur = best.DefectOut
	}
	return s
}
