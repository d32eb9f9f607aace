// Package baseline implements the comparison algorithms of the paper's
// Section 1 (related work): Luby's randomized MIS [22, 1], a randomized
// (Delta+1)-coloring in the style of Johansson [15], Cole-Vishkin
// 3-coloring of rooted forests [8], and the previous deterministic state
// of the art for bounded arboricity, the Barenboim-Elkin PODC'08 coloring
// (Lemma 2.2(1)) that the paper's own algorithms are measured against.
package baseline

import (
	"math/rand"

	"repro/internal/dist"
)

// lubyAlgo implements Luby's MIS: in each two-round iteration every alive
// vertex draws a random value; strict local maxima (ties by identifier)
// join the MIS and announce it; vertices hearing an announcement drop out.
// O(log n) iterations with high probability. Messages are two words.
// Odd rounds carry (value, ID); an even round carries only JOIN
// announcements, so round parity alone decides the kind and any message
// in an even round means JOIN. The output word is 1 for MIS members.
type lubyAlgo struct {
	seed int64
}

// lubyState is the per-node randomness and the node's current value.
type lubyState struct {
	rng *rand.Rand
	x   int64
}

func (lubyAlgo) MessageWords() int { return 2 }
func (lubyAlgo) InputWidth() int   { return 0 }
func (lubyAlgo) OutputWidth() int  { return 1 }

func (a lubyAlgo) InitWords(n *dist.Node) {
	st := &lubyState{rng: rand.New(rand.NewSource(nodeSeed(a.seed, n.ID(), tagLuby)))}
	n.State = st
	st.draw(n)
}

// draw picks the node's value for the next iteration and sends
// (value, ID) to every neighbor.
func (st *lubyState) draw(n *dist.Node) {
	st.x = st.rng.Int63()
	sendAll2(n, st.x, int64(n.ID()))
}

// sendAll2 sends the two-word message (a, b) on every port.
func sendAll2(n *dist.Node, a, b int64) {
	for p := 0; p < n.Degree(); p++ {
		w := n.SendWords(p)
		w[0], w[1] = a, b
	}
}

func (a lubyAlgo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	st := n.State.(*lubyState)
	if n.Round()%2 == 0 {
		// A JOIN from a neighbor: drop out (the output stays 0).
		for p := 0; p < inbox.Ports(); p++ {
			if inbox.Has(p) {
				n.Halt()
				return
			}
		}
		// Survived: draw a fresh value for the next iteration.
		st.draw(n)
		return
	}
	// Check local maximality among alive neighbors (silent ports mean
	// dead neighbors).
	id := int64(n.ID())
	for p := 0; p < inbox.Ports(); p++ {
		if !inbox.Has(p) {
			continue
		}
		if w := inbox.Words(p); w[0] > st.x || (w[0] == st.x && w[1] > id) {
			return
		}
	}
	n.SetOutputWord(1)
	sendAll2(n, 0, 0) // JOIN: the words are unused
	n.Halt()
}

// LubyResult reports a Luby MIS run.
type LubyResult struct {
	InMIS    []bool
	Rounds   int
	Messages int64
}

// LubyMIS runs Luby's randomized MIS. The seed makes runs reproducible;
// per-node randomness is derived from (seed, id, algorithm tag) through
// a splitmix64 finalizer, so streams are independent across nodes and
// across the randomized baselines sharing a seed.
func LubyMIS(net *dist.Network, seed int64) (*LubyResult, error) {
	res, err := net.Run(lubyAlgo{seed: seed}, dist.RunOptions{})
	if err != nil {
		return nil, err
	}
	inMIS := make([]bool, net.Graph().N())
	for v, w := range res.OutputWords {
		inMIS[v] = w == 1
	}
	return &LubyResult{InMIS: inMIS, Rounds: res.Rounds, Messages: res.Messages}, nil
}
