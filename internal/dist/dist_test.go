package dist

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// chainColor 2-colors a path: the head (no predecessor port) outputs 0 in
// InitWords; every other node waits for its predecessor's color c and
// outputs 1-c. The input word is the port leading to the predecessor, or
// -1 for the head.
type chainColor struct{}

func (chainColor) MessageWords() int { return 1 }
func (chainColor) InputWidth() int   { return 1 }
func (chainColor) OutputWidth() int  { return 1 }

func (chainColor) InitWords(n *Node) {
	if n.InputWords()[0] < 0 {
		n.SetOutputWord(0)
		n.SendAllWord(0)
		n.Halt()
	}
}

func (chainColor) StepWords(n *Node, inbox WordInbox) {
	p := int(n.InputWords()[0])
	if !inbox.Has(p) {
		return
	}
	c := 1 - inbox.Word(p)
	n.SetOutputWord(c)
	n.SendAllWord(c)
	n.Halt()
}

func pathInputs(n int) []int64 {
	inputs := make([]int64, n)
	inputs[0] = -1 // every later vertex's predecessor v-1 is its smaller neighbor: port 0
	return inputs
}

func TestPathTwoColoringEndToEnd(t *testing.T) {
	const n = 17
	net := NewNetwork(graph.Path(n))
	res, err := net.Run(chainColor{}, RunOptions{InputWords: pathInputs(n)})
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]int, n)
	if err := IntsFromWords(res, colors); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if colors[v] != v%2 {
			t.Fatalf("vertex %d colored %d, want %d", v, colors[v], v%2)
		}
	}
	// The color wave takes one round per edge; every node sends to every
	// neighbor once, so 2m - (n-1) = n-1 messages reach unhalted nodes,
	// but all 2m sends are counted.
	if res.Rounds != n-1 {
		t.Errorf("rounds = %d, want %d", res.Rounds, n-1)
	}
	if want := int64(2 * (n - 1)); res.Messages != want {
		t.Errorf("messages = %d, want %d", res.Messages, want)
	}
}

func TestErrMaxRoundsSurfaces(t *testing.T) {
	const n = 9
	net := NewNetwork(graph.Path(n))
	// Budget too small for the wave to reach the tail.
	_, err := net.Run(chainColor{}, RunOptions{InputWords: pathInputs(n), MaxRounds: n / 2})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	// Exactly enough rounds: no error.
	if _, err := net.Run(chainColor{}, RunOptions{InputWords: pathInputs(n), MaxRounds: n - 1}); err != nil {
		t.Fatalf("tight budget failed: %v", err)
	}
}

// gossip floods identifiers for a fixed number of rounds and outputs a
// digest of everything heard - enough mixing that any engine divergence
// (ordering, delivery, halting) changes some output.
type gossip struct{ rounds int }

func (gossip) MessageWords() int { return 1 }
func (gossip) InputWidth() int   { return 0 }
func (gossip) OutputWidth() int  { return 1 }

func (g gossip) InitWords(n *Node) {
	n.SetOutputWord(int64(n.ID()))
	n.SendAllWord(int64(n.ID()))
}

func (g gossip) StepWords(n *Node, inbox WordInbox) {
	acc := n.OutputWords()[0]
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			acc = acc*31 + inbox.Word(p) + int64(p)
		}
	}
	n.SetOutputWord(acc)
	if n.Round() >= g.rounds {
		n.Halt()
		return
	}
	n.SendAllWord(acc % 1000003)
}

func runGossip(t *testing.T, seed int64, workers int) *Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ForestUnion(600, 4, rng)
	net := NewNetworkPermuted(g, rng)
	res, err := net.Run(gossip{rounds: 8}, RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	res.Wall = 0 // host wall time, not deterministic
	return res
}

func TestDeterministicForIdenticalSeeds(t *testing.T) {
	a := runGossip(t, 42, 0)
	b := runGossip(t, 42, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different results")
	}
	c := runGossip(t, 43, 0)
	if reflect.DeepEqual(a.OutputWords, c.OutputWords) {
		t.Fatal("different seeds produced identical outputs (permutation ignored?)")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq := runGossip(t, 7, 1) // force sequential
	par := runGossip(t, 7, 4) // pin the worker pool (pinned counts always fan out)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("worker-pool execution diverged from sequential execution")
	}
}

// portEcho counts, per visible port, the rounds in which the port was
// audible; used to verify label/active visibility.
type portEcho struct{ rounds int }

func (portEcho) MessageWords() int { return 1 }
func (portEcho) InputWidth() int   { return 0 }
func (portEcho) OutputWidth() int  { return PerPort }

func (e portEcho) InitWords(n *Node) { n.SendAllWord(int64(n.ID())) }

func (e portEcho) StepWords(n *Node, inbox WordInbox) {
	heard := n.OutputWords()
	for p := range heard {
		if inbox.Has(p) {
			heard[p]++
		}
	}
	if n.Round() >= e.rounds {
		n.Halt()
		return
	}
	n.SendAllWord(int64(n.ID()))
}

func TestLabelAndActiveFiltering(t *testing.T) {
	// K4: every pair adjacent. Labels split {0,1} vs {2,3}; vertex 3 is
	// inactive. Then 0 and 1 hear exactly each other (in both rounds);
	// 2 hears nobody and 3 has no ports at all.
	g := graph.Complete(4)
	labels := []int{0, 0, 1, 1}
	active := []bool{true, true, true, false}
	net := NewNetwork(g)
	res, err := net.Run(portEcho{rounds: 2}, RunOptions{Labels: labels, Active: active})
	if err != nil {
		t.Fatal(err)
	}
	// Per-port layout: vertex 0's one port, vertex 1's one port; vertex 2
	// has degree 0 and the inactive vertex 3 owns no slots.
	if want := []int64{2, 2}; !reflect.DeepEqual(res.OutputWords, want) {
		t.Errorf("per-port hearing counts %v, want %v", res.OutputWords, want)
	}
	// Engine port numbering must agree with VisiblePorts.
	if ports := VisiblePorts(g, labels, active, 0); !reflect.DeepEqual(ports, []int{1}) {
		t.Errorf("VisiblePorts(0) = %v, want [1]", ports)
	}
}

// haltSender: the sender (id 1) transmits once while halting in
// InitWords; the listener records, as a bitmask output, the rounds in
// which it heard anything through round `until`.
type haltSender struct{ until int }

func (haltSender) MessageWords() int { return 1 }
func (haltSender) InputWidth() int   { return 0 }
func (haltSender) OutputWidth() int  { return 1 }

func (haltSender) InitWords(n *Node) {
	if n.ID() == 1 {
		n.SendAllWord(999)
		n.Halt()
	}
}

func (h haltSender) StepWords(n *Node, inbox WordInbox) {
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			n.OutputWords()[0] |= 1 << n.Round()
		}
	}
	if n.Round() == h.until {
		n.Halt()
	}
}

// TestHaltingSendDeliveredExactlyOnce: the message sent while halting
// must arrive exactly once - in round 1, and never again.
func TestHaltingSendDeliveredExactlyOnce(t *testing.T) {
	net := NewNetwork(graph.Path(2))
	res, err := net.Run(haltSender{until: 3}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.OutputWords[1]; got != 1<<1 {
		t.Fatalf("vertex 1 heard in rounds %b, want round 1 only", got)
	}
}

// idler never halts; exercises the engine's default budget error path
// cheaply via an explicit small cap.
type idler struct{}

func (idler) MessageWords() int                  { return 1 }
func (idler) InputWidth() int                    { return 0 }
func (idler) OutputWidth() int                   { return 0 }
func (idler) InitWords(n *Node)                  {}
func (idler) StepWords(n *Node, inbox WordInbox) {}

type zeroWidth struct{ idler }

func (zeroWidth) MessageWords() int { return 0 }

func TestRunOptionValidation(t *testing.T) {
	net := NewNetwork(graph.Path(3))
	if _, err := net.Run(nil, RunOptions{}); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := net.Run(idler{}, RunOptions{Labels: []int{0}}); err == nil {
		t.Error("short labels accepted")
	}
	if _, err := net.Run(idler{}, RunOptions{Active: []bool{true}}); err == nil {
		t.Error("short active mask accepted")
	}
	if _, err := net.Run(idler{}, RunOptions{MaxRounds: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := net.Run(zeroWidth{}, RunOptions{}); err == nil {
		t.Error("zero-word algorithm accepted")
	}
	if _, err := net.Run(idler{}, RunOptions{MaxRounds: 4}); !errors.Is(err, ErrMaxRounds) {
		t.Error("non-halting program did not trip the budget")
	}
}

// idEcho outputs its identifier and halts in InitWords.
type idEcho struct{ idler }

func (idEcho) OutputWidth() int { return 1 }
func (idEcho) InitWords(n *Node) {
	n.SetOutputWord(int64(n.ID()))
	n.Halt()
}

func TestInitOnlyRunCostsZeroRounds(t *testing.T) {
	net := NewNetworkPermuted(graph.Star(6), rand.New(rand.NewSource(3)))
	res, err := net.Run(idEcho{}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.Messages != 0 {
		t.Fatalf("rounds=%d messages=%d, want 0/0", res.Rounds, res.Messages)
	}
	ids := net.IDs()
	for v, w := range res.OutputWords {
		if int(w) != ids[v] {
			t.Fatalf("vertex %d output %d, want id %d", v, w, ids[v])
		}
	}
}

func TestNetworkReusableAcrossRuns(t *testing.T) {
	net := NewNetworkPermuted(graph.Grid(6, 6), rand.New(rand.NewSource(11)))
	first, err := net.Run(gossip{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	firstWords := append([]int64(nil), first.OutputWords...)
	second, err := net.Run(gossip{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Rounds != second.Rounds || first.Messages != second.Messages ||
		!reflect.DeepEqual(firstWords, second.OutputWords) {
		t.Fatal("re-running on the same network changed the result")
	}
}
