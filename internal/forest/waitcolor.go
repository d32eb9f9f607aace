package forest

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
)

// This file implements the wait-for-parents coloring engine: given an
// acyclic (partial) orientation, every vertex waits until all its parents
// have selected colors, then selects its own according to a local rule and
// announces it. Running time is len(sigma)+1 rounds (Theorem 3.2 /
// Appendix A induction).
//
// Two rules are used in the paper:
//   - RuleFirstFree: smallest palette color unused by any parent; with
//     palette size > out-degree this yields a LEGAL coloring of the edges
//     oriented by sigma (Appendix A; and Lemma 2.2(1) when sigma is a
//     Complete-Orientation).
//   - RuleLeastUsed: palette color selected by the fewest parents; by
//     pigeonhole at most floor(outdeg/k) parents share the chosen color,
//     which is the core of Procedure Simple-Arbdefective (Theorem 3.2).

// ChoiceRule selects a color in [0, palette) given the multiset of parent
// colors (parentColors[c] = number of parents colored c).
type ChoiceRule int

const (
	// RuleFirstFree picks the smallest color used by no parent.
	RuleFirstFree ChoiceRule = iota + 1
	// RuleLeastUsed picks the color used by the fewest parents
	// (smallest index on ties).
	RuleLeastUsed
)

func (r ChoiceRule) choose(counts []int) (int, error) {
	switch r {
	case RuleFirstFree:
		for c, k := range counts {
			if k == 0 {
				return c, nil
			}
		}
		return 0, fmt.Errorf("forest: palette of size %d exhausted", len(counts))
	case RuleLeastUsed:
		best := 0
		for c := 1; c < len(counts); c++ {
			if counts[c] < counts[best] {
				best = c
			}
		}
		return best, nil
	default:
		return 0, fmt.Errorf("forest: unknown choice rule %d", r)
	}
}

// WaitColorAlgo is the vertex program of the engine; construct it with
// newWaitColor. Word layout: the input column holds one word per visible
// port and doubles as the node's per-run state - 0 marks a non-parent
// port, 1 a parent not yet heard from, and c+2 a parent that announced
// color c (so callers must not reuse the column expecting the original
// flags). The output column is one word per vertex, the chosen color.
// With the waiting state folded into the input column a run allocates
// nothing per vertex.
type WaitColorAlgo struct {
	// Palette is the number of available colors k and Rule selects the
	// color choice rule; both are uniform and globally known.
	Palette int
	Rule    ChoiceRule

	// pool recycles the transient parent-color count buffer used when a
	// node finishes.
	pool *sync.Pool
}

// newWaitColor prepares the engine's vertex program.
func newWaitColor(palette int, rule ChoiceRule) WaitColorAlgo {
	return WaitColorAlgo{
		Palette: palette,
		Rule:    rule,
		pool:    &sync.Pool{New: func() any { return new(countScratch) }},
	}
}

type countScratch struct{ counts []int }

// MessageWords implements dist.Algorithm: a message is the sender's
// chosen color.
func (WaitColorAlgo) MessageWords() int { return 1 }

// InputWidth and OutputWidth implement dist.Algorithm: one parent-flag
// word per visible port in, one color word per vertex out.
func (WaitColorAlgo) InputWidth() int  { return dist.PerPort }
func (WaitColorAlgo) OutputWidth() int { return 1 }

// InitWords finishes parent-free vertices at once.
//
//distvet:noalloc
func (a WaitColorAlgo) InitWords(n *dist.Node) {
	if a.Palette < 1 {
		n.Failf("forest: bad wait-color palette %d", a.Palette)
		return
	}
	pending := 0
	for _, w := range n.InputWords() {
		if w == 1 {
			pending++
		}
	}
	if pending == 0 {
		a.finishWords(n)
	}
}

// StepWords records announced parent colors into the node's own input
// slots (flag 1 -> color+2), so the only state is the words themselves.
//
//distvet:noalloc
func (a WaitColorAlgo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	ports := n.InputWords()
	pending := 0
	for p := range ports {
		if ports[p] != 1 {
			continue // non-parent, or parent already recorded
		}
		if inbox.Has(p) {
			ports[p] = inbox.Word(p) + 2
		} else {
			pending++
		}
	}
	if pending == 0 {
		a.finishWords(n)
	}
}

// finishWords chooses the node's color, publishes it as the output,
// halts and announces it to children. Parent counts are rebuilt from the
// recorded input words into pooled scratch.
//
//distvet:noalloc
func (a WaitColorAlgo) finishWords(n *dist.Node) {
	sc := a.pool.Get().(*countScratch)
	if cap(sc.counts) < a.Palette {
		sc.counts = make([]int, a.Palette) //distvet:alloc-ok one-time growth of the pooled counts buffer to the palette size
	}
	counts := sc.counts[:a.Palette]
	clear(counts)
	for _, w := range n.InputWords() {
		if c := int(w) - 2; c >= 0 && c < a.Palette {
			counts[c]++
		}
	}
	c, err := a.Rule.choose(counts)
	a.pool.Put(sc)
	if err != nil {
		n.Fail(err)
		return
	}
	n.SetOutputWord(int64(c))
	n.Halt()
	n.SendAllWord(int64(c))
}

// WaitColorResult reports a wait-for-parents run.
type WaitColorResult struct {
	Colors   []int
	Rounds   int
	Messages int64
	// Wall and PeakLive are host-side observability figures; see
	// HPartition.
	Wall     time.Duration
	PeakLive int
}

// Stats returns the run-stat view of the wait-color cost.
func (r *WaitColorResult) Stats() dist.RunStats {
	return dist.RunStats{Rounds: r.Rounds, Messages: r.Messages, Wall: r.Wall, PeakLive: r.PeakLive}
}

// WaitColor runs the engine over an orientation. palette is the number of
// colors k; rule selects the per-vertex choice. labels/active optionally
// restrict to subgraphs (sigma must then orient only intra-subgraph edges,
// as produced by OrientByLevelKey with the same filters). Running time is
// len(sigma)+1 rounds.
func WaitColor(net *dist.Network, sigma *graph.Orientation, palette int, rule ChoiceRule, labels []int, active []bool) (*WaitColorResult, error) {
	g := net.Graph()
	n := g.N()
	length, err := sigma.Length()
	if err != nil {
		return nil, fmt.Errorf("forest: wait-color needs acyclic orientation: %w", err)
	}
	colors := make([]int, n)
	// Parent flags in the engine's per-port column order, filled in
	// parallel against the session's cached topology. Note: these
	// are VISIBLE ports (label/active-filtered), so they do not align
	// with sigma's graph ports; query by neighbor vertex.
	col := net.PortColumn(labels, active, func(v int, ports []int, out []int64) {
		for p, u := range ports {
			if sigma.IsParent(v, u) {
				out[p] = 1
			}
		}
	})
	res, err := net.Run(newWaitColor(palette, rule), dist.RunOptions{
		InputWords: col,
		Labels:     labels,
		Active:     active,
		MaxRounds:  length + 2,
	})
	if err != nil {
		return nil, err
	}
	if err := dist.IntsFromWords(res, colors); err != nil {
		return nil, err
	}
	return &WaitColorResult{Colors: colors, Rounds: res.Rounds, Messages: res.Messages, Wall: res.Wall, PeakLive: res.PeakLive}, nil
}
