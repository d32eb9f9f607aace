package core

import (
	"fmt"

	"repro/internal/dist"
)

// This file implements the MIS results of Section 1.2: a legal coloring is
// converted to a maximal independent set by processing color classes in
// increasing order - each class is an independent set, so all its undecided
// vertices join simultaneously. With an O(a)-coloring from Legal-Coloring
// the total time is O(a + a^mu log n).

// misAlgo processes color classes in rounds: a vertex of color c decides at
// round c (round 0 = InitWords): it joins the MIS unless a neighbor
// announced joining earlier. The input word is the vertex's color; a
// vertex that hears a join overwrites it with ^c, so a negative word
// doubles as the blocked flag while ^w still recovers c. The output word
// is 1 for MIS members and 0 otherwise.
type misAlgo struct{}

func (misAlgo) MessageWords() int { return 1 }
func (misAlgo) InputWidth() int   { return 1 }
func (misAlgo) OutputWidth() int  { return 1 }

//distvet:noalloc
func (misAlgo) InitWords(n *dist.Node) {
	c := n.InputWords()[0]
	if c < 0 {
		n.Failf("core: mis: bad color input %d", c)
		return
	}
	if c == 0 {
		// No neighbor shares color 0; no earlier class exists.
		misJoin(n)
	}
}

//distvet:noalloc
func (misAlgo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	in := n.InputWords()
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) && in[0] >= 0 {
			in[0] = ^in[0]
		}
	}
	blocked, c := in[0] < 0, in[0]
	if blocked {
		c = ^c
	}
	if int64(n.Round()) < c {
		return
	}
	if blocked {
		n.Halt()
		return
	}
	misJoin(n)
}

// misJoin puts the node into the MIS and announces it to its neighbors.
//
//distvet:noalloc
func misJoin(n *dist.Node) {
	n.SetOutputWord(1)
	n.SendAllWord(1)
	n.Halt()
}

// MISResult reports an MIS computation.
type MISResult struct {
	InMIS []bool
	dist.RunStats
}

// MISFromColoring converts a legal coloring into an MIS in maxColor rounds.
func MISFromColoring(net *dist.Network, colors []int) (*MISResult, error) {
	g := net.Graph()
	if len(colors) != g.N() {
		return nil, fmt.Errorf("core: mis: %d colors for %d vertices", len(colors), g.N())
	}
	col := make([]int64, len(colors))
	for v, c := range colors {
		col[v] = int64(c)
	}
	res, err := net.Run(misAlgo{}, dist.RunOptions{InputWords: col})
	if err != nil {
		return nil, err
	}
	inMIS := make([]bool, g.N())
	for v, w := range res.OutputWords {
		inMIS[v] = w == 1
	}
	return &MISResult{InMIS: inMIS, RunStats: res.Stats()}, nil
}

// MIS computes a maximal independent set on a graph of arboricity at most
// a: Legal-Coloring with parameter p, then class-by-class selection.
// Total time O(a + a^mu log n) per Section 1.2.
func MIS(net *dist.Network, cfg Config) (*MISResult, *dist.Tally, error) {
	lc, err := LegalColoring(net, cfg)
	if err != nil {
		return nil, nil, err
	}
	var tally dist.Tally
	tally.Merge(lc.Tally)
	net.Probe().SetPhase("core/mis-sweep")
	mr, err := MISFromColoring(net, lc.Colors)
	if err != nil {
		return nil, nil, err
	}
	tally.AddStats("mis-sweep", mr.RunStats)
	return mr, &tally, nil
}
