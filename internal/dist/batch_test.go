package dist

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// wordGossip floods mixed digests, halts at staggered rounds (id mod 3)
// with a final halting send, and outputs the digest. Any delivery,
// silence-order, halting-send or port-numbering bug changes some output.
type wordGossip struct{ rounds int }

func (wordGossip) MessageWords() int { return 1 }
func (wordGossip) InputWidth() int   { return 0 }
func (wordGossip) OutputWidth() int  { return 1 }

func (g wordGossip) InitWords(n *Node) {
	v := int64(n.ID())*100003 + 7
	n.State = v
	n.SendAllWord(v)
}

func (g wordGossip) StepWords(n *Node, inbox WordInbox) {
	acc := n.State.(int64)
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			acc = acc*31 + inbox.Word(p) + int64(p)
		}
	}
	n.State = acc
	if n.Round() >= g.rounds+n.ID()%3 {
		n.SetOutputWord(acc)
		n.Halt()
	}
	out := acc % 1000003
	if out < 0 {
		out = -out
	}
	n.SendAllWord(out + 1)
}

// tripleTag exchanges 3-word messages (id, round, id^round) for a fixed
// number of rounds; the digest folds all three words with distinct
// weights, so a word ordering or width bug diverges immediately.
type tripleTag struct{ rounds int }

func (tripleTag) MessageWords() int { return 3 }
func (tripleTag) InputWidth() int   { return 0 }
func (tripleTag) OutputWidth() int  { return 1 }

func (t tripleTag) send(n *Node) {
	r := int64(n.Round())
	for p := 0; p < n.Degree(); p++ {
		w := n.SendWords(p)
		w[0], w[1], w[2] = int64(n.ID()), r, int64(n.ID())^r
	}
}

func (t tripleTag) InitWords(n *Node) {
	n.SetOutputWord(1)
	t.send(n)
}

func (t tripleTag) StepWords(n *Node, inbox WordInbox) {
	acc := n.OutputWords()[0]
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			w := inbox.Words(p)
			acc = acc*1099511628211 + 3*w[0] + 5*w[1] + 7*w[2] + int64(p)
		}
	}
	n.SetOutputWord(acc)
	if n.Round() >= t.rounds {
		n.Halt()
		return
	}
	t.send(n)
}

// runGolden is a frozen run: FNV-64a hash of the output column (8-byte
// little-endian words), rounds and messages.
type runGolden struct {
	hash     uint64
	rounds   int
	messages int64
}

func hashWords(ws []int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range ws {
		for i := range buf {
			buf[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// checkFrozen runs algo and fails unless its outputs, rounds and messages
// match the frozen run. The goldens in this file were captured from the
// boxed []any transport, which these tests used to compare the batch
// transport against before the boxed plane was deleted.
func checkFrozen(t *testing.T, net *Network, algo Algorithm, opts RunOptions, want runGolden) *Result {
	t.Helper()
	res, err := net.Run(algo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := (runGolden{hashWords(res.OutputWords), res.Rounds, res.Messages}); got != want {
		t.Fatalf("got {%#x, %d, %d}, frozen boxed run had {%#x, %d, %d}",
			got.hash, got.rounds, got.messages, want.hash, want.rounds, want.messages)
	}
	return res
}

func TestBatchMatchesBoxedOnRandomGraphs(t *testing.T) {
	for seed, want := range []runGolden{
		{0x1d3aa8b039cfd84d, 8, 12061},
		{0x32b19bab252534d2, 8, 12764},
		{0xe3ff2e35b4bb8825, 8, 12789},
		{0xae48d0674827850d, 8, 12518},
	} {
		rng := rand.New(rand.NewSource(500 + int64(seed)))
		g := graph.Gnp(200, 0.04, rng)
		checkFrozen(t, NewNetworkPermuted(g, rng), wordGossip{rounds: 6}, RunOptions{}, want)
	}
}

func TestBatchMatchesBoxedUnderFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(510))
	g := graph.ForestUnion(300, 4, rng)
	net := NewNetworkPermuted(g, rng)
	labels := make([]int, g.N())
	active := make([]bool, g.N())
	for v := range labels {
		labels[v] = rng.Intn(3)
		active[v] = rng.Intn(5) > 0
	}
	res := checkFrozen(t, net, wordGossip{rounds: 5}, RunOptions{Labels: labels, Active: active},
		runGolden{0xd7f2dc0dc1c2f2e0, 7, 3619})
	for v, w := range res.OutputWords {
		if !active[v] && w != 0 {
			t.Fatalf("inactive vertex %d has output %d", v, w)
		}
	}
}

func TestBatchMatchesBoxedMultiWord(t *testing.T) {
	rng := rand.New(rand.NewSource(520))
	net := NewNetworkPermuted(graph.Grid(12, 12), rng)
	checkFrozen(t, net, tripleTag{rounds: 5}, RunOptions{}, runGolden{0xc485ff95ef0109b5, 5, 2640})
}

func TestBatchParallelMatchesSequential(t *testing.T) {
	run := func(workers int) *Result {
		rng := rand.New(rand.NewSource(530))
		g := graph.ForestUnion(600, 4, rng)
		net := NewNetworkPermuted(g, rng)
		res, err := net.Run(wordGossip{rounds: 8}, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res.Wall = 0 // host wall time, not deterministic
		return res
	}
	seq := run(1) // force sequential
	par := run(4) // pin the worker pool (pinned counts always fan out)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("batch worker-pool execution diverged from sequential execution")
	}
}

// TestBatchHaltingSendDeliveredExactlyOnce listens through round 5: both
// round parities recur twice after the send, so a stale sent flag (the
// clear-on-halt path) would re-deliver in round 3 or 5.
func TestBatchHaltingSendDeliveredExactlyOnce(t *testing.T) {
	net := NewNetwork(graph.Path(2))
	res, err := net.Run(haltSender{until: 5}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.OutputWords[1]; got != 1<<1 {
		t.Fatalf("vertex 1 heard in rounds %b, want round 1 only", got)
	}
}

// crossSender misuses the send API; the engine must reject it loudly
// instead of corrupting the columns.
type crossSender struct{ badPort bool }

func (crossSender) MessageWords() int { return 2 }
func (crossSender) InputWidth() int   { return 0 }
func (crossSender) OutputWidth() int  { return 0 }
func (c crossSender) InitWords(n *Node) {
	if c.badPort {
		n.SendWords(n.Degree()) // one past the last port: must panic
	} else {
		n.SendWord(0, 1) // width is 2: must panic
	}
}
func (crossSender) StepWords(n *Node, i WordInbox) {}

// wantContained drives a run whose vertex program misuses the engine
// (the engine panics inside the program's InitWords/StepWords). The
// run-control plane must contain that panic into the deterministic
// Node.Fail path: an error wrapping ErrVertexPanic that still quotes the
// engine's own misuse message, plus a partial Result - never a crash.
func wantContained(t *testing.T, substr string, f func() (*Result, error)) {
	t.Helper()
	res, err := f()
	if err == nil {
		t.Errorf("no error, want contained panic mentioning %q", substr)
		return
	}
	if !errors.Is(err, ErrVertexPanic) {
		t.Errorf("error %v does not wrap ErrVertexPanic", err)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Errorf("error %v, want mention of %q", err, substr)
	}
	if res == nil {
		t.Errorf("contained panic for %q returned no partial result", substr)
	}
}

func TestTransportMisusePanics(t *testing.T) {
	net := NewNetwork(graph.Path(2))
	wantContained(t, "SendWord with 2-word messages", func() (*Result, error) {
		return net.Run(crossSender{}, RunOptions{})
	})
	wantContained(t, "sends on port 1 of 1", func() (*Result, error) {
		return net.Run(crossSender{badPort: true}, RunOptions{})
	})
}

func TestBatchNetworkReusableAcrossRuns(t *testing.T) {
	net := NewNetworkPermuted(graph.Grid(8, 8), rand.New(rand.NewSource(12)))
	first, err := net.Run(wordGossip{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	firstWords := append([]int64(nil), first.OutputWords...)
	second, err := net.Run(wordGossip{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Rounds != second.Rounds || first.Messages != second.Messages ||
		!reflect.DeepEqual(firstWords, second.OutputWords) {
		t.Fatal("re-running on the same network changed the result")
	}
}

// flood is the delivery-path benchmark program: one word per message,
// the per-node digest kept in the output column, leaving message delivery
// as the loop's only work besides the add.
type flood struct{ rounds int }

func (flood) MessageWords() int { return 1 }
func (flood) InputWidth() int   { return 0 }
func (flood) OutputWidth() int  { return 1 }

func (f flood) InitWords(n *Node) {
	n.SetOutputWord(int64(n.ID()))
	n.SendAllWord(int64(n.ID() + 100000))
}

func (f flood) StepWords(n *Node, inbox WordInbox) {
	acc := n.OutputWords()
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			acc[0] += inbox.Word(p)
		}
	}
	if n.Round() >= f.rounds {
		n.Halt()
		return
	}
	n.SendAllWord(acc[0]%1000003 + 100000)
}

// BenchmarkDeliveryBatch measures one Run of a 16-round one-word flood on
// the columnar message transport.
func BenchmarkDeliveryBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := graph.ForestUnion(4096, 4, rng)
	net := NewNetworkPermuted(g, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Run(flood{rounds: 16}, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
