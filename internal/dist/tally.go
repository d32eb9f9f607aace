package dist

import "time"

// PhaseStat is the cost of one named phase of a multi-stage pipeline:
// the LOCAL measures (rounds, messages) plus the host-side attribution
// (wall time of the phase's engine runs, peak live-set size).
type PhaseStat struct {
	Name     string
	Rounds   int
	Messages int64
	// Wall is the summed Result.Wall of the phase's runs.
	Wall time.Duration
	// PeakLive is the largest live-vertex count any of the phase's runs
	// started with.
	PeakLive int
}

// Tally accumulates round and message counts across the phases of a
// pipeline (H-partition, level coloring, orientation, ...). The engine
// fills it: a phase is a WithPhase view, and every run on the view
// charges its Result to the phase. The zero value is an empty tally
// ready for use. A Tally is not safe for concurrent use, so runs that
// charge one tally must not overlap.
type Tally struct {
	phases []PhaseStat
}

// phase is the charge target of a WithPhase view: phase i of t, the
// enclosing phase of the view it was made from (nil at the outermost),
// and the path that labels its runs.
type phase struct {
	t      *Tally
	i      int
	parent *phase
	path   string
}

// WithPhase returns a view of the network that appends phase name to t
// now and charges to it every Run on the view or on a view derived from
// it: the Result's rounds, messages and wall add up, and its peak-live
// raises the phase's. An aborted run charges its partial Result. A view
// made from a phased view charges both phases, so a composite phase is
// the sum of its parts; nest phases of different tallies, since a tally's
// totals sum its phases. The phase path - name, or the enclosing path,
// "/" and name - labels the runs' RunRecord.Phase and panic errors.
func (net *Network) WithPhase(t *Tally, name string) *Network {
	t.phases = append(t.phases, PhaseStat{Name: name})
	c := *net
	c.phase = &phase{t: t, i: len(t.phases) - 1, parent: net.phase, path: name}
	if net.phase != nil {
		c.phase.path = net.phase.path + "/" + name
	}
	return &c
}

// label returns the phase path of a view's runs ("" unphased).
func (ph *phase) label() string {
	if ph == nil {
		return ""
	}
	return ph.path
}

// charge adds a run's Result to the phase and every enclosing phase.
func (ph *phase) charge(res *Result) {
	for ; ph != nil; ph = ph.parent {
		p := &ph.t.phases[ph.i]
		p.Rounds += res.Rounds
		p.Messages += res.Messages
		p.Wall += res.Wall
		p.PeakLive = max(p.PeakLive, res.PeakLive)
	}
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

// Wall returns the total wall time across all phases.
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
