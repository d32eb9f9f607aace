package baseline

import (
	"fmt"
	"math/bits"

	"repro/internal/dist"
)

// Cole-Vishkin 3-coloring of rooted forests [8]: starting from identifier
// colors, every iteration replaces a vertex's color by (2i + b) where i is
// the lowest bit position at which its color differs from its parent's and
// b is the vertex's bit there; the color-space size K shrinks to
// 2*ceil(log2 K) per round, reaching 6 after log* n + O(1) rounds. Three
// shift-down/recolor iterations then eliminate colors 5, 4 and 3.

// cvIterations returns the number of bit-reduction rounds needed to bring
// identifier colors in [0, n] down to [0, 6), identically computable by
// every node from n.
func cvIterations(n int) int {
	k := n + 1
	if k < 7 {
		return 0
	}
	count := 0
	for k > 6 {
		k = 2 * bits.Len(uint(k-1))
		count++
		if count > 64 {
			break
		}
	}
	return count
}

// cvAlgo is the Cole-Vishkin vertex program. Messages are one color word;
// the input word is the port leading to the vertex's parent (-1 for
// roots); the output word is the vertex's current - and finally
// 3-coloring - color. reduceT is the globally known bit-reduction round
// count cvIterations(n), and old is a caller-owned per-vertex arena
// holding each vertex's pre-shift color through an elimination's
// recolor round.
type cvAlgo struct {
	reduceT int
	old     []int64
}

func (cvAlgo) MessageWords() int { return 1 }
func (cvAlgo) InputWidth() int   { return 1 }
func (cvAlgo) OutputWidth() int  { return 1 }

func (cvAlgo) InitWords(n *dist.Node) {
	if pp := n.InputWords()[0]; pp >= int64(n.Degree()) {
		n.Failf("baseline: parent port %d out of range", pp)
		return
	}
	color := int64(n.ID() - 1)
	n.SetOutputWord(color)
	n.SendAllWord(color)
}

// fakeParentColor gives roots an imaginary parent color differing from
// their own.
func fakeParentColor(c int64) int64 {
	if c == 0 {
		return 1
	}
	return 0
}

func (a cvAlgo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	pp := int(n.InputWords()[0])
	color := n.OutputWords()[0]
	parentColor := func() int64 {
		if pp >= 0 && inbox.Has(pp) {
			return inbox.Word(pp)
		}
		return fakeParentColor(color)
	}

	r := n.Round()
	if r <= a.reduceT {
		// Bit-reduction round.
		diff := color ^ parentColor()
		i := int64(bits.TrailingZeros64(uint64(diff)))
		color = 2*i + (color>>i)&1
		n.SetOutputWord(color)
		n.SendAllWord(color)
		return
	}

	// Elimination iterations for target colors 5, 4, 3: two rounds each.
	elim := r - a.reduceT - 1 // 0-based round index within eliminations
	target := int64(5 - elim/2)
	if elim%2 == 0 {
		// Shift-down: adopt the parent's announced color; roots pick a
		// fresh color from {0,1,2} differing from their current one, so
		// no eliminated color is ever reintroduced (and it differs from
		// their children's new color).
		a.old[n.Vertex()] = color
		if pp >= 0 {
			color = parentColor()
		} else if color == 0 {
			color = 1
		} else {
			color = 0
		}
		n.SetOutputWord(color)
		n.SendAllWord(color)
		return
	}
	// Recolor round: vertices holding the target color choose from
	// {0,1,2} avoiding the parent's shifted color and the children's
	// shifted color (= own pre-shift color).
	if color == target {
		pc, old := parentColor(), a.old[n.Vertex()]
		for c := int64(0); c < 3; c++ {
			if c != pc && c != old {
				color = c
				break
			}
		}
		n.SetOutputWord(color)
	}
	if target == 3 {
		n.Halt()
		return
	}
	n.SendAllWord(color)
}

// CVResult reports a Cole-Vishkin run.
type CVResult struct {
	Colors []int
	dist.RunStats
}

// ColeVishkinForest 3-colors a rooted forest in O(log* n) rounds.
// parentOf[v] is v's parent vertex or -1 for roots; every (v, parentOf[v])
// pair must be an edge, and the parent relation must be acyclic with
// out-degree one (a rooted forest). Non-forest edges must not exist.
func ColeVishkinForest(net *dist.Network, parentOf []int) (*CVResult, error) {
	g := net.Graph()
	if len(parentOf) != g.N() {
		return nil, fmt.Errorf("baseline: parentOf has %d entries for %d vertices", len(parentOf), g.N())
	}
	ports := make([]int64, g.N())
	for v := 0; v < g.N(); v++ {
		ports[v] = -1
		if p := parentOf[v]; p >= 0 {
			if ports[v] = int64(g.PortOf(v, p)); ports[v] < 0 {
				return nil, fmt.Errorf("baseline: parent %d of %d is not a neighbor", p, v)
			}
		}
	}
	algo := cvAlgo{reduceT: cvIterations(g.N()), old: make([]int64, g.N())}
	res, err := net.Run(algo, dist.RunOptions{InputWords: ports})
	if err != nil {
		return nil, err
	}
	colors := make([]int, g.N())
	if err := dist.IntsFromWords(res, colors); err != nil {
		return nil, err
	}
	return &CVResult{Colors: colors, RunStats: res.Stats()}, nil
}
