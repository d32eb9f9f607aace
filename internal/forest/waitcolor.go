package forest

import (
	"fmt"
	"sync"

	"repro/internal/dist"
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
// newWaitColor. Word layout: the input column is an orientation's Dirs
// (one word per visible port) and doubles as the node's per-run state -
// a word <= 0 marks a non-parent port, 1 a parent not yet heard from,
// and c+2 a parent that announced color c. A finishing node hands every
// recorded slot back as 1, so a completed run leaves the column as it
// found it; a failed run may leave slots rewritten. The output column is
// one word per vertex, the chosen color. With the waiting state folded
// into the input column a run allocates nothing per vertex.
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

// InputWidth and OutputWidth implement dist.Algorithm: one direction
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
// recorded input words into pooled scratch, and each recorded slot goes
// back to 1 as it is counted.
//
//distvet:noalloc
func (a WaitColorAlgo) finishWords(n *dist.Node) {
	sc := a.pool.Get().(*countScratch)
	if cap(sc.counts) < a.Palette {
		sc.counts = make([]int, a.Palette) //distvet:alloc-ok one-time growth of the pooled counts buffer to the palette size
	}
	counts := sc.counts[:a.Palette]
	clear(counts)
	in := n.InputWords()
	for p, w := range in {
		if w < 2 {
			continue
		}
		if c := int(w) - 2; c < a.Palette {
			counts[c]++
		}
		in[p] = 1
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
	Colors []int
	dist.RunStats
}

// WaitColor runs the engine over an acyclic (partial) orientation, within
// the subgraphs the orientation was computed under. palette is the number
// of colors k; rule selects the per-vertex choice. Running time is
// len(sigma)+1 rounds; the run gets or.LengthBound+2, so an orientation
// longer than its bound, or a cyclic one, fails with dist.ErrMaxRounds.
//
// The run keeps its state in or.Dirs itself and restores it on success,
// so one orientation may feed several runs one after another, but never
// concurrent ones; after a failed run or.Dirs may hold rewritten slots.
func WaitColor(net *dist.Network, or *OrientResult, palette int, rule ChoiceRule) (*WaitColorResult, error) {
	res, err := net.Run(newWaitColor(palette, rule), dist.RunOptions{
		InputWords: or.Dirs,
		Labels:     or.labels,
		Active:     or.active,
		MaxRounds:  or.LengthBound + 2,
	})
	if err != nil {
		return nil, err
	}
	colors := make([]int, net.Graph().N())
	if err := dist.IntsFromWords(res, colors); err != nil {
		return nil, err
	}
	return &WaitColorResult{Colors: colors, RunStats: res.Stats()}, nil
}
