package baseline

import (
	"math/rand"

	"repro/internal/dist"
)

// randColorAlgo is the randomized (Delta+1)-coloring in the style of
// Johansson [15] / the folklore trial-based algorithm: every undecided
// vertex proposes a uniformly random color from its remaining palette;
// a proposal is kept when no undecided neighbor proposed the same color
// (identifier priority breaks ties). Decided colors are announced and
// removed from neighbors' palettes. O(log n) iterations w.h.p. Messages
// are two words: odd rounds carry proposals (color, ID), even rounds
// only final announcements (color, unused). The output word is the
// color.
type randColorAlgo struct {
	seed    int64
	palette int
}

type rcState struct {
	rng      *rand.Rand
	taken    map[int]bool
	proposal int
}

func (randColorAlgo) MessageWords() int { return 2 }
func (randColorAlgo) InputWidth() int   { return 0 }
func (randColorAlgo) OutputWidth() int  { return 1 }

func (a randColorAlgo) InitWords(n *dist.Node) {
	st := &rcState{
		rng:   rand.New(rand.NewSource(nodeSeed(a.seed, n.ID(), tagRandColor))),
		taken: make(map[int]bool),
	}
	n.State = st
	st.propose(a, n)
}

func (st *rcState) propose(a randColorAlgo, n *dist.Node) {
	// Draw uniformly from the free palette.
	free := make([]int, 0, a.palette)
	for c := 0; c < a.palette; c++ {
		if !st.taken[c] {
			free = append(free, c)
		}
	}
	if len(free) == 0 {
		// Impossible when palette > degree; defensive.
		n.Failf("baseline: palette exhausted")
		return
	}
	st.proposal = free[st.rng.Intn(len(free))]
	sendAll2(n, int64(st.proposal), int64(n.ID()))
}

func (a randColorAlgo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	st := n.State.(*rcState)
	if n.Round()%2 == 1 {
		// Proposal round results: keep the color unless an undecided
		// neighbor with priority proposed the same one.
		keep := true
		for p := 0; p < inbox.Ports(); p++ {
			if !inbox.Has(p) {
				continue
			}
			if w := inbox.Words(p); int(w[0]) == st.proposal && w[1] > int64(n.ID()) {
				keep = false
			}
		}
		if keep {
			n.SetOutputWord(int64(st.proposal))
			sendAll2(n, int64(st.proposal), 0)
			n.Halt()
		}
		return
	}
	// Announcement round: record finalized neighbor colors, then repropose.
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			st.taken[int(inbox.Word(p))] = true
		}
	}
	st.propose(a, n)
}

// RandColorResult reports a randomized coloring run.
type RandColorResult struct {
	Colors   []int
	Rounds   int
	Messages int64
}

// RandomizedColoring runs the trial-based (Delta+1)-coloring.
func RandomizedColoring(net *dist.Network, seed int64) (*RandColorResult, error) {
	palette := net.Graph().MaxDegree() + 1
	res, err := net.Run(randColorAlgo{seed: seed, palette: palette}, dist.RunOptions{})
	if err != nil {
		return nil, err
	}
	colors := make([]int, net.Graph().N())
	if err := dist.IntsFromWords(res, colors); err != nil {
		return nil, err
	}
	return &RandColorResult{Colors: colors, Rounds: res.Rounds, Messages: res.Messages}, nil
}
