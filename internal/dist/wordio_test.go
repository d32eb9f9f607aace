package dist

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// seedMix is the engine-level word-I/O program: per-vertex typed inputs
// (a seed and a round budget word), one digest word of output, and
// one-word messages. Any input-decode, output-slot, delivery or halting
// bug shifts some digest.
type seedMix struct{}

func (seedMix) MessageWords() int { return 1 }
func (seedMix) InputWidth() int   { return 2 }
func (seedMix) OutputWidth() int  { return 1 }

func (seedMix) InitWords(n *Node) {
	acc := n.InputWords()[0]*1000003 + int64(n.ID())
	n.State = acc
	n.SendAllWord(acc % 99991)
}

func (seedMix) StepWords(n *Node, inbox WordInbox) {
	acc := n.State.(int64)
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			acc = acc*31 + inbox.Word(p) + int64(p)
		}
	}
	n.State = acc
	if int64(n.Round()) >= n.InputWords()[1]+int64(n.ID()%2) {
		n.SetOutputWord(acc)
		n.Halt()
		return
	}
	n.SendAllWord(acc % 99991)
}

func seedMixInputs(g *graph.Graph, rng *rand.Rand) []int64 {
	words := make([]int64, 2*g.N())
	for v := 0; v < g.N(); v++ {
		words[2*v], words[2*v+1] = int64(rng.Intn(1000)), int64(3+rng.Intn(3))
	}
	return words
}

// The two seedMix goldens were captured from the boxed []any plane (the
// same program reading per-vertex input structs), which these tests used
// to compare the word plane against before it was deleted.

func TestWordIOShadowsBoxedOnRandomGraphs(t *testing.T) {
	for seed, want := range []runGolden{
		{0x189752fb4e769834, 6, 4751},
		{0x3f07eca1db66b003, 6, 5486},
		{0x433da7e53caccaa9, 6, 5406},
		{0xb1f2e8857eca66b, 6, 5150},
	} {
		rng := rand.New(rand.NewSource(700 + int64(seed)))
		g := graph.Gnp(150, 0.05, rng)
		net := NewNetworkPermuted(g, rng)
		checkFrozen(t, net, seedMix{}, RunOptions{InputWords: seedMixInputs(g, rng)}, want)
	}
}

func TestWordIOShadowsBoxedUnderFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(710))
	g := graph.ForestUnion(400, 3, rng)
	net := NewNetworkPermuted(g, rng)
	labels := make([]int, g.N())
	active := make([]bool, g.N())
	for v := range labels {
		labels[v] = rng.Intn(3)
		active[v] = rng.Intn(6) > 0
	}
	opts := RunOptions{InputWords: seedMixInputs(g, rng), Labels: labels, Active: active}
	checkFrozen(t, net, seedMix{}, opts, runGolden{0xa982d239f3fd6c28, 6, 2360})
}

// portScale exercises the PerPort layouts on both ends: the input column
// carries one weight word per visible port, the output column one word
// per visible port (weight times the neighbor's opening message).
type portScale struct{}

func (portScale) MessageWords() int { return 1 }
func (portScale) InputWidth() int   { return PerPort }
func (portScale) OutputWidth() int  { return PerPort }

func (portScale) InitWords(n *Node) { n.SendAllWord(int64(n.ID() + 13)) }

func (portScale) StepWords(n *Node, inbox WordInbox) {
	in := n.InputWords()
	out := n.OutputWords()
	for p := range out {
		if inbox.Has(p) {
			out[p] = in[p] * inbox.Word(p)
		}
	}
	n.Halt()
}

func TestWordIOPerPortPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(720))
	g := graph.ForestUnion(300, 4, rng) // forest unions include isolated degree-0 vertices
	net := NewNetworkPermuted(g, rng)
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = rng.Intn(2)
	}

	// Every visible neighbor sends id+13 in round 0, so port p of v
	// must output weight(v, p) * (id(u)+13) - computed here host-side.
	ids := net.IDs()
	var words, want []int64
	ForEachVisible(g, labels, nil, func(v int, ports []int) {
		for p, u := range ports {
			w := int64(1 + (v+p)%7)
			words = append(words, w)
			want = append(want, w*int64(ids[u]+13))
		}
	})
	res, err := net.Run(portScale{}, RunOptions{InputWords: words, Labels: labels})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.Messages != int64(len(words)) {
		t.Errorf("rounds/messages %d/%d, want 1/%d", res.Rounds, res.Messages, len(words))
	}
	if !reflect.DeepEqual(res.OutputWords, want) {
		t.Fatal("per-port output column diverges from the host-side products")
	}
}

func TestWordIOColumnReusedAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(730))
	g := graph.Grid(10, 10)
	net := NewNetworkPermuted(g, rng)
	words := seedMixInputs(g, rng)
	first, err := net.Run(seedMix{}, RunOptions{InputWords: words})
	if err != nil {
		t.Fatal(err)
	}
	firstCopy := append([]int64(nil), first.OutputWords...)
	second, err := net.Run(seedMix{}, RunOptions{InputWords: words})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(firstCopy, second.OutputWords) {
		t.Fatal("identical word runs diverged")
	}
	if &first.OutputWords[0] != &second.OutputWords[0] {
		t.Fatal("second run did not reuse the network-pooled output column")
	}
}

func TestWordIOValidation(t *testing.T) {
	g := graph.Path(3)
	net := NewNetwork(g)
	// Wrong input column length.
	if _, err := net.Run(seedMix{}, RunOptions{InputWords: make([]int64, 5)}); err == nil {
		t.Error("short input column accepted")
	}
	// An input column for an algorithm that declares no input.
	if _, err := net.Run(wordGossip{rounds: 2}, RunOptions{InputWords: make([]int64, 3)}); err == nil {
		t.Error("InputWords accepted for an algorithm without an input column")
	}
}

// inputTouch calls InputWords although it declares no input, which
// must panic.
type inputTouch struct{ idler }

func (inputTouch) InitWords(n *Node) { n.InputWords() }

func TestWordIOMisusePanics(t *testing.T) {
	net := NewNetwork(graph.Path(2))
	wantContained(t, "declares no input words", func() (*Result, error) {
		return net.Run(inputTouch{}, RunOptions{})
	})
	// SetOutputWord with a wider declared output.
	wantContained(t, "SetOutputWord with 2 output words", func() (*Result, error) {
		return net.Run(badSetter{}, RunOptions{})
	})
	// SetOutputWords with the wrong word count.
	wantContained(t, "sets 1 of 2 output words", func() (*Result, error) {
		return net.Run(badSetter{short: true}, RunOptions{})
	})
}

type badSetter struct{ short bool }

func (badSetter) MessageWords() int { return 1 }
func (badSetter) InputWidth() int   { return 0 }
func (badSetter) OutputWidth() int  { return 2 }
func (b badSetter) InitWords(n *Node) {
	if b.short {
		n.SetOutputWords(1)
	} else {
		n.SetOutputWord(1)
	}
}
func (badSetter) StepWords(n *Node, i WordInbox) {}

// failAt fails every vertex whose identifier is divisible by div, in
// round 1.
type failAt struct{ div int }

var errFailAt = errors.New("synthetic vertex failure")

func (failAt) MessageWords() int { return 1 }
func (failAt) InputWidth() int   { return 0 }
func (failAt) OutputWidth() int  { return 1 }
func (failAt) InitWords(n *Node) { n.SendAllWord(1) }
func (f failAt) StepWords(n *Node, i WordInbox) {
	if n.ID()%f.div == 0 {
		n.Fail(errFailAt)
		return
	}
	n.Halt()
}

func TestFailReportsSmallestVertexDeterministically(t *testing.T) {
	rng := rand.New(rand.NewSource(740))
	g := graph.Gnp(900, 0.01, rng)
	net := NewNetworkPermuted(g, rng)

	want := ""
	for _, workers := range []int{4, 1} { // pinned worker pool and sequential
		_, err := net.WithWorkers(workers).Run(failAt{div: 7}, RunOptions{})
		if !errors.Is(err, errFailAt) {
			t.Fatalf("workers=%d: got %v, want errFailAt", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("nondeterministic failure report:\n%q\n%q", err.Error(), want)
		}
	}
	if !strings.Contains(want, "vertex ") {
		t.Fatalf("failure report %q does not name the vertex", want)
	}
}

func TestVertexAccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(750))
	net := NewNetworkPermuted(graph.Path(5), rng)
	res, err := net.Run(vertexEcho{}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v, w := range res.OutputWords {
		if int(w) != v {
			t.Fatalf("vertex %d reported Vertex()=%d", v, w)
		}
	}
}

type vertexEcho struct{}

func (vertexEcho) MessageWords() int { return 1 }
func (vertexEcho) InputWidth() int   { return 0 }
func (vertexEcho) OutputWidth() int  { return 1 }
func (vertexEcho) InitWords(n *Node) {
	n.SetOutputWord(int64(n.Vertex()))
	n.Halt()
}
func (vertexEcho) StepWords(n *Node, i WordInbox) {}
