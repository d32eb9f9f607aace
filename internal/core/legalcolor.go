// Package core implements the paper's primary contribution: Procedure
// Legal-Coloring (Algorithm 2) and the results built on it.
//
//   - Theorem 4.3:  O(a)-coloring in O(a^mu log n) rounds (p = ceil(a^(mu/2))).
//   - Theorem 4.5:  a^(1+o(1))-coloring in O(f(a) log a log n) rounds
//     (p = f(a)^(1/2) for slow-growing f).
//   - Corollary 4.6: O(a^(1+eta))-coloring in O(log a log n) rounds
//     (p = 2^O(1/eta)).
//   - Corollary 4.7: (Delta+1)-coloring (indeed o(Delta)) when a <= Delta^(1-nu).
//   - Lemma 4.1:    one-shot O(a)-coloring in O(a^(2/3) log n) rounds.
//   - Theorem 5.2:  O(a^2/g(a))-coloring in O(log g(a) log n) rounds.
//   - Theorem 5.3:  O(a*t)-coloring in O((a/t)^mu log n) rounds.
//   - Section 1.2:  MIS in O(a + a^mu log n) rounds.
//
// Algorithm 2 refines the graph into subgraphs of geometrically shrinking
// arboricity via repeated Arbdefective-Coloring invocations (all subgraphs
// in parallel), then legally colors all final subgraphs with disjoint
// palettes. Subgraph identities are the paper's z-indices (line 9 of
// Algorithm 2): z = z_parent * p + j, which keeps palettes disjoint without
// any coordination.
package core

import (
	"fmt"

	"repro/internal/arbdefect"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/orient"
)

// Config parameterizes Procedure Legal-Coloring.
type Config struct {
	// Arboricity is the bound a on the arboricity of the graph (or of each
	// base-labelled subgraph).
	Arboricity int
	// P is the refinement parameter p of Algorithm 2. Must be at least 4
	// so that the arboricity shrinks by a factor p/(3+eps) > 1 per
	// iteration (the paper assumes wlog p >= 16).
	P int
	// Eps is the H-partition slack; zero value means forest.DefaultEps.
	Eps forest.Eps
	// LevelColoring selects the level-coloring method of the final
	// Complete-Orientation (Lemma 2.2(1) step, line 19). Zero value means
	// orient.LevelLinial, which is much faster at small scales and keeps
	// every theorem's round bound: the final subgraphs have arboricity at
	// most p, so its O(p^2 log n) orientation length is O(a^mu log n) at
	// Theorem 4.3's p = a^(mu/2), and likewise for Theorem 4.5 and
	// Corollary 4.6.
	LevelColoring orient.LevelColoring
	// Labels/Active optionally restrict to base subgraphs, each of
	// arboricity at most Arboricity. Labels must be dense non-negative
	// ints; the output coloring is then legal within every base subgraph
	// AND across subgraph boundaries (disjoint palettes per base label).
	Labels []int
	Active []bool
	// Checkpoint resumes the refinement loop from a state captured by an
	// earlier run's OnIteration callback instead of starting at iteration
	// zero. The checkpoint must come from a run on the same instance with
	// the same Config (Arboricity, P, Eps, Labels); the pipeline cannot
	// verify that and a mismatched checkpoint produces garbage, not an
	// error. The resumed run is bit-for-bit identical to the uninterrupted
	// one: z and alpha fully determine the remaining iterations.
	Checkpoint *Checkpoint
	// OnIteration, when non-nil, is called after every completed while-loop
	// iteration with a self-contained Checkpoint (the callback owns the
	// slices). A non-nil error aborts the pipeline and is returned wrapped;
	// callbacks that persist the checkpoint and then signal a deliberate
	// kill use this to model crash/resume in tests and harnesses.
	OnIteration func(Checkpoint) error
}

// Checkpoint is the pipeline-level state of Legal-Coloring at a
// while-loop iteration boundary: everything the refinement loop carries
// between iterations. It is plain exported data so harness code can
// serialize it (the engine-level dist.Snapshot covers in-round state;
// this covers between-run state).
type Checkpoint struct {
	// Iteration is the number of completed while-loop iterations.
	Iteration int
	// Alpha is the current arboricity bound of every subgraph.
	Alpha int
	// Z holds the z-indices (subgraph identities, line 9) after
	// Iteration refinements.
	Z []int
	// Phases is the phase tally recorded so far, in recording order
	// (rebuild with dist.TallyFromPhases on resume).
	Phases []dist.PhaseStat
}

func (c *Config) normalize() error {
	if c.Arboricity < 1 {
		return fmt.Errorf("core: arboricity bound must be >= 1, got %d", c.Arboricity)
	}
	if c.P < 4 {
		return fmt.Errorf("core: p must be >= 4 for the recursion to converge, got %d", c.P)
	}
	if c.Eps == (forest.Eps{}) {
		c.Eps = forest.DefaultEps
	}
	if c.LevelColoring == 0 {
		c.LevelColoring = orient.LevelLinial
	}
	return nil
}

// Result reports a Legal-Coloring run.
type Result struct {
	// Colors is a legal coloring with values in [0, Palette).
	Colors []int
	// Palette bounds the color values: (zMax+1) * A in the paper's
	// notation. The number of *distinct* colors used is at most
	// min(Palette, n); both are O(a) for constant iteration counts
	// (Lemma 4.2(3)).
	Palette int
	// Iterations is the number of while-loop iterations executed.
	Iterations int
	// FinalArboricity is the arboricity bound of the final subgraphs.
	FinalArboricity int
	Tally           *dist.Tally
}

// LegalColoring runs Procedure Legal-Coloring (Algorithm 2).
func LegalColoring(net *dist.Network, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	g := net.Graph()
	n := g.N()
	var tally dist.Tally

	// The subgraph collection G, identified by z-indices (line 9).
	z := make([]int, n)
	if cfg.Labels != nil {
		copy(z, cfg.Labels)
	}
	alpha := cfg.Arboricity
	p := cfg.P

	iterations := 0
	if ck := cfg.Checkpoint; ck != nil {
		if len(ck.Z) != n {
			return nil, fmt.Errorf("core: checkpoint has %d z-indices for an n=%d instance", len(ck.Z), n)
		}
		if ck.Alpha < 1 || ck.Iteration < 0 {
			return nil, fmt.Errorf("core: malformed checkpoint (alpha=%d, iteration=%d)", ck.Alpha, ck.Iteration)
		}
		copy(z, ck.Z)
		alpha = ck.Alpha
		iterations = ck.Iteration
		tally.Merge(dist.TallyFromPhases(ck.Phases))
	}
	for alpha > p {
		ad, err := arbdefect.Coloring(net, alpha, p, p, cfg.Eps, z, cfg.Active)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d (alpha=%d): %w", iterations+1, alpha, err)
		}
		tally.Merge(ad.Tally)
		for v := 0; v < n; v++ {
			z[v] = z[v]*p + ad.Colors[v]
		}
		if ad.Bound >= alpha {
			return nil, fmt.Errorf("core: arboricity failed to shrink (%d -> %d); p too small", alpha, ad.Bound)
		}
		alpha = ad.Bound
		iterations++
		if iterations > 64 {
			return nil, fmt.Errorf("core: iteration budget exceeded")
		}
		if cfg.OnIteration != nil {
			ck := Checkpoint{
				Iteration: iterations,
				Alpha:     alpha,
				Z:         append([]int(nil), z...),
				Phases:    tally.Phases(),
			}
			if err := cfg.OnIteration(ck); err != nil {
				return nil, fmt.Errorf("core: checkpoint callback after iteration %d: %w", iterations, err)
			}
		}
	}

	// Lines 17-19: legally color every subgraph with palette A using the
	// Lemma 2.2(1) pipeline (Complete-Orientation + wait-for-parents).
	alphaBound := alpha
	if alphaBound < 1 {
		alphaBound = 1
	}
	paletteA := cfg.Eps.Threshold(alphaBound) + 1
	co, err := orient.Complete(net, alphaBound, cfg.Eps, cfg.LevelColoring, z, cfg.Active)
	if err != nil {
		return nil, fmt.Errorf("core: final orientation: %w", err)
	}
	tally.Merge(co.Tally)
	wc, err := forest.WaitColor(net.WithPhase(&tally, "final-greedy"), co.Orient, paletteA, forest.RuleFirstFree)
	if err != nil {
		return nil, fmt.Errorf("core: final coloring: %w", err)
	}

	// Line 19's palette offset: color = z*A + psi (a free local step).
	colors := make([]int, n)
	zMax := 0
	for v := 0; v < n; v++ {
		colors[v] = z[v]*paletteA + wc.Colors[v]
		if z[v] > zMax {
			zMax = z[v]
		}
	}
	return &Result{
		Colors:          colors,
		Palette:         (zMax + 1) * paletteA,
		Iterations:      iterations,
		FinalArboricity: alpha,
		Tally:           &tally,
	}, nil
}
