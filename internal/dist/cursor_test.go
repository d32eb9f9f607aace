package dist

import (
	"errors"
	"math/bits"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// This file pins the per-chunk Node cursors and the halt collection the
// step loop folds in: every chunk compacts its kept vertices in place and
// parks its halted ones in the spare list, and one serial join per round
// concatenates the chunks. Chunk edges are where that can go wrong, so
// the halting patterns below put halts on them at every worker count.

// haltPattern floods a digest of its inbox and halts each vertex at the
// round when(v) returns (0 = during Init; never when it exceeds every
// budget). The digest lives in the output word, so outputs expose any
// delivery or live-set divergence.
type haltPattern struct {
	when func(v int) int
}

func (haltPattern) MessageWords() int { return 1 }
func (haltPattern) InputWidth() int   { return 0 }
func (haltPattern) OutputWidth() int  { return 1 }

func (h haltPattern) InitWords(n *Node) {
	n.SetOutputWord(int64(n.ID()))
	n.SendAllWord(int64(n.ID()))
	if h.when(n.Vertex()) == 0 {
		n.Halt()
	}
}

func (h haltPattern) StepWords(n *Node, inbox WordInbox) {
	out := n.OutputWords()
	acc := out[0]
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			acc = (acc*31 + inbox.Word(p) + int64(p)) % 1000003
		}
	}
	out[0] = acc
	n.SendAllWord(acc + int64(n.Round()))
	if h.when(n.Vertex()) <= n.Round() {
		n.Halt()
	}
}

// cursorN divides by every worker count the patterns cut at, so chunk
// sizes n/w land exactly on vertex boundaries in round 1.
const cursorN = 420

// haltPatterns are the five shapes, the chunk-edge ones at the first
// round's chunk size of 2, 3 and 7 workers.
func haltPatterns() map[string]haltPattern {
	pats := map[string]haltPattern{
		"all-in-init": {when: func(int) int { return 0 }},
		// Round r halts every other vertex still live: those whose
		// index ends in exactly r-1 one bits.
		"every-other": {when: func(v int) int { return 1 + bits.TrailingZeros(^uint(v)) }},
		"never":       {when: func(int) int { return 1 << 30 }},
	}
	for _, w := range []int{2, 3, 7} {
		k := cursorN / w
		pats["chunk-last/"+strconv.Itoa(w)] = haltPattern{when: func(v int) int {
			if (v+1)%k == 0 {
				return 1
			}
			return 3
		}}
		pats["whole-chunk/"+strconv.Itoa(w)] = haltPattern{when: func(v int) int {
			if v/k == 1 {
				return 2
			}
			return 4
		}}
	}
	return pats
}

// patternRun is everything a pattern run must reproduce at every worker
// count: the Result (wall aside), the error text, and each round record's
// live and message counts.
type patternRun struct {
	res    *Result
	err    string
	rounds [][2]int64
}

func runPattern(t *testing.T, net *Network, algo Algorithm, workers int) patternRun {
	t.Helper()
	sink := &memSink{}
	p := NewProbe(sink)
	res, err := net.WithProbe(p).WithWorkers(workers).Run(algo, RunOptions{MaxRounds: 12})
	if cerr := p.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	var pr patternRun
	if res != nil {
		res.Wall = 0
		res.OutputWords = append([]int64(nil), res.OutputWords...)
		pr.res = res
	}
	if err != nil {
		pr.err = err.Error()
	}
	for _, rec := range sink.rounds {
		pr.rounds = append(pr.rounds, [2]int64{int64(rec.Live), rec.Messages})
	}
	return pr
}

// TestCursorHaltPatterns runs every halting pattern at workers 1, 2, 3
// and 7 and on a probed 4-shard view, and requires the one-worker run's
// outputs, rounds, messages, error text and per-round live and message
// counts from all of them.
func TestCursorHaltPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := graph.ForestUnion(cursorN, 3, rng)
	net := NewNetworkPermuted(g, rng)
	sh, err := graph.NewSharding(cursorN, 4)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := net.Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	for name, pat := range haltPatterns() {
		want := runPattern(t, net, pat, 1)
		switch {
		case name == "never":
			if want.res != nil || want.err != "dist: 420 nodes still running after 12 rounds: "+ErrMaxRounds.Error() {
				t.Fatalf("%s: res=%v err=%q", name, want.res, want.err)
			}
		case want.err != "":
			t.Fatalf("%s: %s", name, want.err)
		case name == "all-in-init" && (want.res.Rounds != 0 || len(want.rounds) != 0):
			t.Fatalf("%s: %d rounds, %d records", name, want.res.Rounds, len(want.rounds))
		}
		for _, w := range []int{2, 3, 7} {
			if got := runPattern(t, net, pat, w); !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d workers diverged from one worker:\n got %+v\nwant %+v", name, w, got, want)
			}
		}
		if got := runPattern(t, sharded, pat, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("%s on 4 shards diverged from one worker:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// stateKeeper stores a Node.State on odd identifiers at round 3 and reads
// it back (advancing it) through round 6, failing the run on any State it
// did not store: a nil one on an odd vertex after round 3, or a non-nil
// one anywhere else.
type stateKeeper struct{ idler }

func (stateKeeper) OutputWidth() int { return 1 }

func (stateKeeper) InitWords(n *Node) {
	if n.State != nil {
		n.Failf("State %v at Init", n.State)
	}
}

func (stateKeeper) StepWords(n *Node, inbox WordInbox) {
	r, id := n.Round(), n.ID()
	switch {
	case id%2 == 0 || r < 3:
		if n.State != nil {
			n.Failf("round %d: unexpected State %v", r, n.State)
		}
	case r == 3:
		n.State = int64(id)
	default:
		v, ok := n.State.(int64)
		if !ok || v != int64(id+r-4) {
			n.Failf("round %d: State %v, want %d", r, n.State, id+r-4)
		}
		n.State = v + 1
		n.SetOutputWord(v)
	}
	if r == 6 {
		n.Halt()
	}
}

// nilState fails any vertex that starts a step holding a State.
type nilState struct{ idler }

func (nilState) InitWords(n *Node) {
	if n.State != nil {
		n.Failf("State %v at Init", n.State)
	}
}

func (nilState) StepWords(n *Node, inbox WordInbox) {
	if n.State != nil {
		n.Failf("State %v at round %d", n.State, n.Round())
	}
	if n.Round() == 3 {
		n.Halt()
	}
}

// TestCursorState pins Node.State across the cursor: a State set on some
// vertices survives their later steps and never shows on another vertex,
// at every worker count; the next run on the session - after a complete
// run or one canceled at round 2 - starts from nil States; and snapshot
// capture still refuses a State-holding program with the same error.
func TestCursorState(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.ForestUnion(cursorN, 3, rng)
	net := NewNetworkPermuted(g, rng)
	var want []int64
	for _, w := range []int{1, 2, 3, 7} {
		net := net.WithWorkers(w)
		res, err := net.Run(stateKeeper{}, RunOptions{})
		if err != nil {
			t.Fatalf("%d workers: %v", w, err)
		}
		if res.Rounds != 6 {
			t.Fatalf("%d workers: %d rounds", w, res.Rounds)
		}
		if w == 1 {
			want = append([]int64(nil), res.OutputWords...)
		} else if !reflect.DeepEqual(res.OutputWords, want) {
			t.Fatalf("%d workers: outputs diverge", w)
		}
		if _, err := net.Run(nilState{}, RunOptions{}); err != nil {
			t.Fatalf("%d workers, run after a State run: %v", w, err)
		}
		_, err = net.WithContext(cancelAtRound(2)).Run(wordGossip{rounds: 6}, RunOptions{})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%d workers: err=%v, want ErrCanceled", w, err)
		}
		if _, err := net.Run(nilState{}, RunOptions{}); err != nil {
			t.Fatalf("%d workers, run after a canceled State run: %v", w, err)
		}
	}
	_, err := net.WithContext(cancelAtRound(2)).Run(wordGossip{rounds: 6}, RunOptions{SnapshotOnAbort: true})
	const wantErr = "dist: run aborted at round boundary: context canceled: dist: run canceled; " +
		"snapshot not captured: dist: snapshot requires column-only state, but vertex 0 holds Node.State"
	if err == nil || err.Error() != wantErr {
		t.Fatalf("snapshot of a State program: err=%v, want %q", err, wantErr)
	}
}

// TestCursorPadded pins the cursor layout: whole cache lines, so the
// cursors of chunks stepped on different workers never share one.
func TestCursorPadded(t *testing.T) {
	if size := unsafe.Sizeof(cursor{}); size%cacheLine != 0 {
		t.Fatalf("cursor is %d bytes, not a whole number of %d-byte lines", size, cacheLine)
	}
}

// setupFlood sends on every port in Init and halts in round 1: a run
// that is almost all setup.
type setupFlood struct{ idler }

func (setupFlood) InitWords(n *Node) { n.SendAllWord(int64(n.ID())) }

func (setupFlood) StepWords(n *Node, inbox WordInbox) { n.Halt() }

// BenchmarkRunSetup measures what each of Legal-Coloring's runs pays
// before it steps: setup of a label-filtered run whose topology is
// cached, plus the Init round and one step round.
func BenchmarkRunSetup(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ForestUnion(50000, 8, rng)
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = rng.Intn(4)
	}
	net := NewNetworkPermuted(g, rng).WithWorkers(1)
	opts := RunOptions{Labels: labels}
	if _, err := net.Run(setupFlood{}, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Run(setupFlood{}, opts); err != nil {
			b.Fatal(err)
		}
	}
}
