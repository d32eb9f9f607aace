package field

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements process-wide evaluation statistics for the
// recoloring row surface (RowBlock.Row and AgreeRun): how many rows the
// precomputed table answered and how many the batch kernel evaluated.
// Counting is opt-in: with stats disabled (the default), callers hold
// nil *EvalCounters and the hot path pays nothing beyond a nil check.
// With stats enabled, counters are shared per (step, q, d) key and
// incremented atomically, so they are exact under any worker count
// (including -race runs).

// EvalCounters tallies row evaluations at one call site family: hits
// are evaluations answered by the precomputed row table, batched are
// rows materialized by the division-free batch kernel (batch.go). All
// methods are safe for concurrent use and no-ops on a nil receiver.
type EvalCounters struct {
	hits    atomic.Int64
	batched atomic.Int64
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

// Hits returns the row-table hit count.
func (c *EvalCounters) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Batched returns the batch-kernel evaluation count.
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
	// Fallbacks is always 0: no row is evaluated outside the table and
	// the batch kernel. It stays because perfbench's
	// field.evals_fallback metric and the trace's fallbacks key read it.
	Fallbacks int64 `json:"fallbacks"`
}

// Total returns hits + batched + fallbacks.
func (s EvalStat) Total() int64 { return s.Hits + s.Batched + s.Fallbacks }

// HitRate returns hits / Total(), or 1 when nothing was counted.
// Batched kernel evaluations count against the rate - they cost
// arithmetic the table answers for free.
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
