package dist

import "time"

// PhaseStat is the cost of one named phase of a multi-stage pipeline:
// the LOCAL measures (rounds, messages) plus the host-side attribution
// (wall time of the phase's engine runs, peak live-set size).
type PhaseStat struct {
	Name     string
	Rounds   int
	Messages int64
	// Wall is the wall time attributed to the phase - for phases that are
	// a single engine run, Result.Wall; for composite phases, the sum the
	// orchestrator recorded. Zero for phases recorded without one.
	Wall time.Duration
	// PeakLive is the largest live-vertex count any of the phase's runs
	// started with (0 when unattributed).
	PeakLive int
}

// Tally accumulates round and message counts across the phases of a
// pipeline (H-partition, level coloring, orientation, ...). The zero
// value is an empty tally ready for use.
type Tally struct {
	phases []PhaseStat
}

// AddStats records a phase with its cost: the LOCAL measures plus wall
// time and peak live-set size (zero where the phase has none).
func (t *Tally) AddStats(name string, st RunStats) {
	t.phases = append(t.phases, PhaseStat{
		Name: name, Rounds: st.Rounds, Messages: st.Messages, Wall: st.Wall, PeakLive: st.PeakLive,
	})
}

// Merge appends every phase of other (nil-safe) to t. Phases are copied
// whole, so wall and peak-live attribution survives merging.
func (t *Tally) Merge(other *Tally) {
	if other == nil {
		return
	}
	t.phases = append(t.phases, other.phases...)
}

// Rounds returns the total rounds across all phases - the LOCAL running
// time of the whole pipeline.
func (t *Tally) Rounds() int {
	total := 0
	for _, p := range t.phases {
		total += p.Rounds
	}
	return total
}

// Messages returns the total messages across all phases.
func (t *Tally) Messages() int64 {
	var total int64
	for _, p := range t.phases {
		total += p.Messages
	}
	return total
}

// Wall returns the total attributed wall time across all phases. Phases
// recorded without wall time contribute zero.
func (t *Tally) Wall() time.Duration {
	var total time.Duration
	for _, p := range t.phases {
		total += p.Wall
	}
	return total
}

// PeakLive returns the largest per-phase peak live-set size.
func (t *Tally) PeakLive() int {
	peak := 0
	for _, p := range t.phases {
		if p.PeakLive > peak {
			peak = p.PeakLive
		}
	}
	return peak
}

// NumPhases returns the number of recorded phases.
func (t *Tally) NumPhases() int { return len(t.phases) }

// Phase returns the i'th recorded phase. Together with NumPhases it is
// the allocation-free iteration path; Phases allocates a fresh copy per
// call and belongs in one-shot reporting code, not hot summarizer loops.
func (t *Tally) Phase(i int) PhaseStat { return t.phases[i] }

// Phases returns a copy of the per-phase breakdown in recording order.
// Every call allocates a fresh slice (callers own and may mutate it);
// loops that only read should iterate NumPhases/Phase instead.
func (t *Tally) Phases() []PhaseStat {
	return append([]PhaseStat(nil), t.phases...)
}

// TallyFromPhases rebuilds a Tally from a recorded phase breakdown - the
// inverse of Phases, used by checkpoint decoders that serialized the
// per-phase stats (PhaseStat is plain exported data). The slice is
// copied; the caller keeps ownership.
func TallyFromPhases(phases []PhaseStat) *Tally {
	return &Tally{phases: append([]PhaseStat(nil), phases...)}
}
