package field

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements process-wide evaluation statistics for the
// recoloring step (Roots.Recolor). Each vertex step counts one hit for
// its own phi_x(alpha), plus one per conflict neighbour y != x: a hit
// when the kernel resolved the neighbour by its closed-form roots, a
// batched evaluation when it resolved it through the finite-difference
// ladder. Counting is opt-in: with stats disabled (the default), callers
// hold nil *EvalCounters and the hot path pays nothing beyond a nil
// check. With stats enabled, counters are shared per (step, q, d) key
// and a vertex step updates them with one call, so they are exact under
// any worker count (including -race runs). CountRow keeps the older
// row-surface meaning (table hit vs. batch-kernel row) for RowBlock's
// AgreeRun, which only perfbench's field-kernel layer and tests reach.

// EvalCounters tallies evaluations at one call site family: hits are
// closed-form resolutions and the node's own point evaluations (on the
// row surface: rows the precomputed table answered), batched are
// neighbours resolved through the division-free ladder (batch.go). All
// methods are safe for concurrent use and no-ops on a nil receiver.
type EvalCounters struct {
	hits    atomic.Int64
	batched atomic.Int64
}

// countStep records one vertex step of the agreement kernel with n
// conflict neighbours y != x: one hit for the node's own phi_x(alpha),
// plus n hits on the closed-form path or n batched evaluations on the
// ladder path. The closed-form path updates the counters with one
// atomic add.
//
//distvet:noalloc
func (c *EvalCounters) countStep(closed bool, n int) {
	if c == nil {
		return
	}
	if closed {
		c.hits.Add(int64(1 + n))
		return
	}
	c.hits.Add(1)
	if n > 0 {
		c.batched.Add(int64(n))
	}
}

// CountRow records one row evaluation through a RowBlock whose snapshot
// covers cached rows, classifying it exactly as RowBlock.Row does:
// table hit iff x < cached, batched kernel evaluation otherwise.
//
//distvet:noalloc
func (c *EvalCounters) CountRow(cached, x int) {
	if c == nil {
		return
	}
	if x < cached {
		c.hits.Add(1)
	} else {
		c.batched.Add(1)
	}
}

// Hits returns the hit count.
func (c *EvalCounters) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Batched returns the ladder (batch-kernel) evaluation count.
func (c *EvalCounters) Batched() int64 {
	if c == nil {
		return 0
	}
	return c.batched.Load()
}

// EvalStat is one row of the process-wide snapshot: the counter key
// (recoloring step index plus the family's field size and degree) and
// its totals.
type EvalStat struct {
	Step    int   `json:"step"`
	Q       int   `json:"q"`
	D       int   `json:"d"`
	Hits    int64 `json:"hits"`
	Batched int64 `json:"batched,omitempty"`
	// Fallbacks is always 0: nothing is evaluated outside the closed
	// form and the ladder. It stays because perfbench's
	// field.evals_fallback metric and the trace's fallbacks key read it.
	Fallbacks int64 `json:"fallbacks"`
}

// Total returns hits + batched + fallbacks.
func (s EvalStat) Total() int64 { return s.Hits + s.Batched + s.Fallbacks }

// HitRate returns hits / Total(), or 1 when nothing was counted.
// Ladder evaluations count against the rate - they cost O(q) per
// neighbour where the closed form costs O(1).
func (s EvalStat) HitRate() float64 {
	t := s.Total()
	if t == 0 {
		return 1
	}
	return float64(s.Hits) / float64(t)
}

type evalKey struct{ step, q, d int }

var evalStats struct {
	mu       sync.Mutex
	enabled  bool
	counters map[evalKey]*EvalCounters
}

// SetEvalStats enables or disables evaluation counting process-wide.
// Disabling does not clear existing counters (use ResetEvalStats); it
// only makes subsequent StepCounters lookups return nil, so algorithm
// values constructed afterwards stop counting.
func SetEvalStats(on bool) {
	evalStats.mu.Lock()
	evalStats.enabled = on
	evalStats.mu.Unlock()
}

// EvalStatsEnabled reports whether evaluation counting is enabled.
func EvalStatsEnabled() bool {
	evalStats.mu.Lock()
	defer evalStats.mu.Unlock()
	return evalStats.enabled
}

// ResetEvalStats drops all counters. Counters already resolved by live
// algorithm values keep counting into the dropped (now private)
// instances, so reset between pipelines, not mid-run.
func ResetEvalStats() {
	evalStats.mu.Lock()
	evalStats.counters = nil
	evalStats.mu.Unlock()
}

// StepCounters returns the shared counter for the (step, q, d) key, or
// nil when stats are disabled. Callers resolve counters once per
// algorithm construction and pass them into the hot path, keeping the
// registry lock off every evaluation.
func StepCounters(step, q, d int) *EvalCounters {
	evalStats.mu.Lock()
	defer evalStats.mu.Unlock()
	if !evalStats.enabled {
		return nil
	}
	if evalStats.counters == nil {
		evalStats.counters = make(map[evalKey]*EvalCounters)
	}
	k := evalKey{step, q, d}
	c := evalStats.counters[k]
	if c == nil {
		c = new(EvalCounters)
		evalStats.counters[k] = c
	}
	return c
}

// EvalStatsSnapshot returns the current totals of every registered
// counter, sorted by (step, q, d). The snapshot is a copy; counters keep
// running.
func EvalStatsSnapshot() []EvalStat {
	evalStats.mu.Lock()
	out := make([]EvalStat, 0, len(evalStats.counters))
	//distvet:unordered the snapshot is sorted by (step, q, d) below; map order never reaches the caller
	for k, c := range evalStats.counters {
		out = append(out, EvalStat{
			Step: k.step, Q: k.q, D: k.d,
			Hits: c.hits.Load(), Batched: c.batched.Load(),
		})
	}
	evalStats.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Step != b.Step {
			return a.Step < b.Step
		}
		if a.Q != b.Q {
			return a.Q < b.Q
		}
		return a.D < b.D
	})
	return out
}
