package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// This file tests the run-control plane: cancellation and deadlines at
// round boundaries, vertex-program panic containment, and engine
// checkpoint/resume. The invariant under test everywhere: aborting,
// panicking or resuming never perturbs the session - the next full run
// on the same Network is bit-for-bit the run a fresh Network produces.

// roundCtx is a context.Context whose Err trips after `after` calls.
// The engine polls ctx.Err() exactly once per round boundary (the
// boundary after completed round r is poll r+1 on unprobed runs), so
// roundCtx cancels a run at a chosen round deterministically - no
// timers, no goroutines.
type roundCtx struct {
	mu    sync.Mutex
	calls int
	after int
}

func cancelAtRound(k int) *roundCtx { return &roundCtx{after: k} }

func (c *roundCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *roundCtx) Done() <-chan struct{}       { return nil }
func (c *roundCtx) Value(any) any               { return nil }
func (c *roundCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// runFull runs wordGossip to completion with the given options and
// returns the result.
func runFull(t *testing.T, net *Network, opts RunOptions) *Result {
	t.Helper()
	res, err := net.Run(wordGossip{rounds: 6}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameRun(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Messages != want.Messages {
		t.Fatalf("%s: rounds/messages %d/%d, want %d/%d", label, got.Rounds, got.Messages, want.Rounds, want.Messages)
	}
	if !reflect.DeepEqual(got.OutputWords, want.OutputWords) {
		t.Fatalf("%s: output words diverge", label)
	}
}

// TestCancelAtEveryRound is the session-safety gate for round-boundary
// aborts: cancel a run at every round boundary k, at several worker
// counts, flat and sharded, and require (a) a
// partial Result wrapped in ErrCanceled and (b) that the SAME session's
// next full run matches a fresh network's bit for bit. The probed modes
// run the cancelled run under a probe and also require (c) a RunRecord
// carrying the error and the partial Result's Messages, and k round
// records that, for k >= 1, sum to those Messages.
func TestCancelAtEveryRound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := graph.ForestUnion(800, 4, rng)
	ids := NewNetworkPermuted(g, rand.New(rand.NewSource(99))).IDs()

	type mode struct {
		name   string
		view   func(t *testing.T) *Network
		opts   RunOptions
		fresh  func(t *testing.T) *Network
		probed bool
	}
	build := func(t *testing.T, workers, shards int) *Network {
		t.Helper()
		net, err := NewNetworkWithIDs(g, ids)
		if err != nil {
			t.Fatal(err)
		}
		if workers > 0 {
			net = net.WithWorkers(workers)
		}
		if shards > 1 {
			sh, err := graph.NewSharding(g.N(), shards)
			if err != nil {
				t.Fatal(err)
			}
			if net, err = net.Sharded(sh); err != nil {
				t.Fatal(err)
			}
		}
		return net
	}
	var modes []mode
	for _, w := range []int{1, 4, 0} {
		w := w
		modes = append(modes, mode{
			name:  fmt.Sprintf("batch/workers=%d", w),
			view:  func(t *testing.T) *Network { return build(t, w, 1) },
			fresh: func(t *testing.T) *Network { return build(t, w, 1) },
		})
	}
	for _, w := range []int{1, 0} {
		w := w
		modes = append(modes, mode{
			name:  fmt.Sprintf("sharded/workers=%d", w),
			view:  func(t *testing.T) *Network { return build(t, w, 4) },
			fresh: func(t *testing.T) *Network { return build(t, w, 4) },
		})
	}
	for _, shards := range []int{1, 4} {
		for _, w := range []int{1, 2} {
			shards, w := shards, w
			modes = append(modes, mode{
				name:   fmt.Sprintf("probed/shards=%d/workers=%d", shards, w),
				view:   func(t *testing.T) *Network { return build(t, w, shards) },
				fresh:  func(t *testing.T) *Network { return build(t, w, shards) },
				probed: true,
			})
		}
	}

	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			net := m.view(t)
			ref := runFull(t, m.fresh(t), RunOptions{})
			for k := 0; k <= ref.Rounds; k++ {
				run, sink := net, (*memSink)(nil)
				if m.probed {
					sink = &memSink{}
					run = net.WithProbe(NewProbe(sink))
				}
				res, err := run.WithContext(cancelAtRound(k)).Run(wordGossip{rounds: 6}, RunOptions{})
				if sink != nil {
					run.Probe().Close()
				}
				if k == ref.Rounds {
					// The run finishes before poll k+1 fires mid-run; whether
					// the final boundary polls depends on live-set emptiness,
					// so only the error-free completion is pinned here.
					if err != nil && !errors.Is(err, ErrCanceled) {
						t.Fatalf("cancel@%d: %v", k, err)
					}
					continue
				}
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("cancel@%d: err=%v, want ErrCanceled", k, err)
				}
				if res == nil {
					t.Fatalf("cancel@%d: no partial result", k)
				}
				if res.Rounds != k {
					t.Fatalf("cancel@%d: partial result reports %d rounds", k, res.Rounds)
				}
				if sink != nil {
					checkAbortRecords(t, k, res, sink)
				}
				// Session reuse after the abort: bit-for-bit normal.
				sameRun(t, fmt.Sprintf("after cancel@%d", k), runFull(t, net, RunOptions{}), ref)
			}
		})
	}
}

// checkAbortRecords pins the probe records of a run cancelled after k
// rounds against its partial Result.
func checkAbortRecords(t *testing.T, k int, res *Result, sink *memSink) {
	t.Helper()
	if len(sink.runs) != 1 {
		t.Fatalf("cancel@%d: %d run records, want 1", k, len(sink.runs))
	}
	if rec := sink.runs[0]; rec.Err == "" || rec.Messages != res.Messages || rec.Rounds != k {
		t.Fatalf("cancel@%d: run record err=%q rounds=%d messages=%d, want an error, %d rounds and %d messages",
			k, rec.Err, rec.Rounds, rec.Messages, k, res.Messages)
	}
	if len(sink.rounds) != k {
		t.Fatalf("cancel@%d: %d round records", k, len(sink.rounds))
	}
	if k == 0 {
		return // Init's sends appear only in the run record
	}
	var msgs int64
	for _, r := range sink.rounds {
		msgs += r.Messages
	}
	if msgs != res.Messages {
		t.Fatalf("cancel@%d: round records carry %d messages, partial result %d", k, msgs, res.Messages)
	}
}

// TestWithContextView pins the Network-level context plumbing: a view's
// canceled context aborts its runs with ErrCanceled, and the parent
// network, which carries no context, still runs.
func TestWithContextView(t *testing.T) {
	net := NewNetwork(graph.Path(64))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := net.WithContext(ctx).Run(wordGossip{rounds: 4}, RunOptions{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("view context ignored: %v", err)
	}
	if _, err := net.Run(wordGossip{rounds: 4}, RunOptions{}); err != nil {
		t.Fatalf("a view's context leaked into its parent network: %v", err)
	}
}

// TestWallBudget pins the wall-clock deadline, which a run takes from its
// view's context: an expired deadline aborts at the first boundary with
// ErrDeadline and a partial result at round 0; a generous one does not
// abort at all.
func TestWallBudget(t *testing.T) {
	net := NewNetwork(graph.Path(64))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := net.WithContext(ctx).Run(wordGossip{rounds: 4}, RunOptions{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired context deadline: err=%v, want ErrDeadline", err)
	}
	if res == nil || res.Rounds != 0 {
		t.Fatalf("expired context deadline: partial result %+v", res)
	}
	gctx, gcancel := context.WithTimeout(context.Background(), time.Hour)
	defer gcancel()
	if _, err := net.WithContext(gctx).Run(wordGossip{rounds: 4}, RunOptions{}); err != nil {
		t.Fatalf("generous context deadline aborted: %v", err)
	}
}

// panicProg panics at (vertex from, round); every vertex >= from panics
// there, so the smallest-vertex-wins report is observable at every
// worker count. Other rounds gossip normally.
type panicProg struct {
	from, round, rounds int
}

func (panicProg) MessageWords() int { return 1 }
func (panicProg) InputWidth() int   { return 0 }
func (panicProg) OutputWidth() int  { return 0 }

func (p panicProg) trip(n *Node) {
	if n.Round() == p.round && n.Vertex() >= p.from {
		panic(fmt.Sprintf("chaos trip at vertex %d", n.Vertex()))
	}
}

func (p panicProg) InitWords(n *Node) { p.trip(n); n.SendAllWord(1) }

func (p panicProg) StepWords(n *Node, inbox WordInbox) {
	p.trip(n)
	if n.Round() >= p.rounds {
		n.Halt()
		return
	}
	n.SendAllWord(1)
}

// TestPanicContainment pins panic recovery into the deterministic
// Node.Fail path: the error wraps ErrVertexPanic, names the globally
// smallest panicking vertex, the round, and the recovered value - at
// every worker count, and the session stays reusable afterwards.
func TestPanicContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ForestUnion(700, 3, rng)
	ids := NewNetworkPermuted(g, rand.New(rand.NewSource(7))).IDs()
	for _, workers := range []int{1, 2, 3, 4, 8, 0} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			net, err := NewNetworkWithIDs(g, ids)
			if err != nil {
				t.Fatal(err)
			}
			if workers > 0 {
				net = net.WithWorkers(workers)
			}
			for _, round := range []int{0, 2} {
				res, err := net.Run(panicProg{from: 137, round: round, rounds: 5}, RunOptions{})
				if !errors.Is(err, ErrVertexPanic) {
					t.Fatalf("round %d: err=%v, want ErrVertexPanic", round, err)
				}
				for _, want := range []string{
					"vertex 137",
					fmt.Sprintf("round %d", round),
					"chaos trip at vertex 137",
				} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("round %d: error %q does not mention %q", round, err, want)
					}
				}
				if res == nil {
					t.Fatalf("round %d: no partial result", round)
				}
			}
			// Session reuse after containment.
			after, err := net.Run(wordGossip{rounds: 6}, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewNetworkWithIDs(g, ids)
			if err != nil {
				t.Fatal(err)
			}
			want := runFull(t, fresh, RunOptions{})
			sameRun(t, "after panic", after, want)
		})
	}
}

// TestPanicContainmentSharded runs the same containment checks on a
// sharded view.
func TestPanicContainmentSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.ForestUnion(900, 3, rng)
	sh, err := graph.NewSharding(g.N(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 0} {
		net, err := NewNetwork(g).Sharded(sh)
		if err != nil {
			t.Fatal(err)
		}
		if workers > 0 {
			net = net.WithWorkers(workers)
		}
		res, err := net.Run(panicProg{from: 211, round: 1, rounds: 5}, RunOptions{})
		if !errors.Is(err, ErrVertexPanic) {
			t.Fatalf("workers=%d: err=%v, want ErrVertexPanic", workers, err)
		}
		if !strings.Contains(err.Error(), "vertex 211") {
			t.Errorf("workers=%d: error %q does not name vertex 211", workers, err)
		}
		if res == nil {
			t.Fatalf("workers=%d: no partial result", workers)
		}
		// The sharded session still runs clean afterwards.
		after, err := net.Run(wordGossip{rounds: 6}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := runFull(t, NewNetwork(g), RunOptions{})
		sameRun(t, fmt.Sprintf("sharded workers=%d after panic", workers), after, want)
	}
}

// waveWords is a multi-round word-I/O program whose per-node state
// lives ENTIRELY in the input column (scratch) - the snapshot
// contract's qualifying shape. in[0] is the rolling digest, in[1] the
// round budget; output is the final digest.
type waveWords struct{}

func (waveWords) MessageWords() int { return 1 }
func (waveWords) InputWidth() int   { return 2 }
func (waveWords) OutputWidth() int  { return 1 }

func (waveWords) InitWords(n *Node) {
	in := n.InputWords()
	in[0] = in[0]*1000003 + int64(n.ID())
	n.SendAllWord(in[0] % 99991)
}

func (waveWords) StepWords(n *Node, inbox WordInbox) {
	in := n.InputWords()
	acc := in[0]
	for p := 0; p < n.Degree(); p++ {
		if inbox.Has(p) {
			acc = acc*31 + inbox.Word(p) + int64(p)
		}
	}
	in[0] = acc
	if int64(n.Round()) >= in[1]+int64(n.ID()%3) {
		n.SetOutputWord(acc)
		n.Halt()
		return
	}
	n.SendAllWord(acc % 99991)
}

func waveInputs(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	words := make([]int64, 2*n)
	for v := 0; v < n; v++ {
		words[2*v] = int64(rng.Intn(1000))
		words[2*v+1] = int64(4 + rng.Intn(3))
	}
	return words
}

// TestSnapshotResumeEveryRound is the checkpoint gate: abort a word-I/O
// run at every round boundary with SnapshotOnAbort, push the snapshot
// through the full DSN1 serialize/parse round trip, resume on a FRESH
// network, and require outputs, absolute rounds and absolute messages
// to match the uninterrupted run bit for bit. Shard counts vary between
// capture and resume: snapshots are flat-layout portable.
func TestSnapshotResumeEveryRound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graph.ForestUnion(900, 4, rng)
	ids := NewNetworkPermuted(g, rand.New(rand.NewSource(12))).IDs()
	n := g.N()

	build := func(t *testing.T, shards int) *Network {
		t.Helper()
		net, err := NewNetworkWithIDs(g, ids)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 {
			sh, err := graph.NewSharding(n, shards)
			if err != nil {
				t.Fatal(err)
			}
			if net, err = net.Sharded(sh); err != nil {
				t.Fatal(err)
			}
		}
		return net
	}
	run := func(t *testing.T, net *Network, opts RunOptions) (*Result, error) {
		t.Helper()
		opts.InputWords = waveInputs(n, 12)
		return net.Run(waveWords{}, opts)
	}

	ref, err := run(t, build(t, 1), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rounds < 5 {
		t.Fatalf("reference run too short (%d rounds) to exercise boundaries", ref.Rounds)
	}

	for _, shape := range []struct {
		name             string
		capture, restore int // shard counts
	}{
		{"flat-to-flat", 1, 1},
		{"flat-to-sharded", 1, 4},
		{"sharded-to-flat", 4, 1},
		{"sharded-to-sharded", 4, 3},
	} {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			for k := 0; k < ref.Rounds; k++ {
				net := build(t, shape.capture)
				res, err := run(t, net.WithContext(cancelAtRound(k)), RunOptions{SnapshotOnAbort: true})
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("cancel@%d: err=%v", k, err)
				}
				if res.Snapshot == nil {
					t.Fatalf("cancel@%d: no snapshot", k)
				}
				if res.Snapshot.Round() != k {
					t.Fatalf("cancel@%d: snapshot at round %d", k, res.Snapshot.Round())
				}
				var blob bytes.Buffer
				if _, err := res.Snapshot.WriteTo(&blob); err != nil {
					t.Fatal(err)
				}
				sn, err := ReadSnapshot(bytes.NewReader(blob.Bytes()))
				if err != nil {
					t.Fatalf("cancel@%d: reparse: %v", k, err)
				}
				resumed, err := build(t, shape.restore).Resume(waveWords{}, RunOptions{InputWords: waveInputs(n, 12)}, sn)
				if err != nil {
					t.Fatalf("resume@%d: %v", k, err)
				}
				if resumed.Rounds != ref.Rounds || resumed.Messages != ref.Messages {
					t.Fatalf("resume@%d: rounds/messages %d/%d, want %d/%d",
						k, resumed.Rounds, resumed.Messages, ref.Rounds, ref.Messages)
				}
				if !reflect.DeepEqual(resumed.OutputWords, ref.OutputWords) {
					t.Fatalf("resume@%d: outputs diverge", k)
				}
			}
		})
	}
}

// TestSnapshotContractRejections pins the refusal paths: snapshots
// require column-only state, and resumes validate dimensions.
func TestSnapshotContractRejections(t *testing.T) {
	g := graph.Path(32)
	net := NewNetwork(g)
	// Program keeping its digest in Node.State: capture must refuse.
	_, err := net.WithContext(cancelAtRound(1)).Run(wordGossip{rounds: 4}, RunOptions{SnapshotOnAbort: true})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled with snapshot failure note", err)
	}
	if !strings.Contains(err.Error(), "snapshot not captured") {
		t.Fatalf("Node.State capture not refused: %v", err)
	}

	// A valid snapshot refuses to resume on a different graph.
	words := waveInputs(g.N(), 3)
	res, err := net.WithContext(cancelAtRound(1)).Run(waveWords{}, RunOptions{
		InputWords: words, SnapshotOnAbort: true,
	})
	if !errors.Is(err, ErrCanceled) || res.Snapshot == nil {
		t.Fatalf("capture failed: %v", err)
	}
	other := NewNetwork(graph.Path(33))
	if _, err := other.Resume(waveWords{}, RunOptions{InputWords: waveInputs(33, 3)}, res.Snapshot); err == nil {
		t.Fatal("resume on a different graph accepted")
	}
	if _, err := other.Resume(waveWords{}, RunOptions{InputWords: waveInputs(33, 3)}, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

// TestSnapshotTruncation pins the parser: every strict prefix of a
// serialized snapshot errors cleanly (never a partial snapshot, never a
// panic), and trailing garbage is rejected.
func TestSnapshotTruncation(t *testing.T) {
	g := graph.Path(48)
	net := NewNetwork(g)
	res, err := net.WithContext(cancelAtRound(2)).Run(waveWords{}, RunOptions{
		InputWords: waveInputs(g.N(), 5), SnapshotOnAbort: true,
	})
	if !errors.Is(err, ErrCanceled) || res.Snapshot == nil {
		t.Fatalf("capture failed: %v", err)
	}
	var blob bytes.Buffer
	if _, err := res.Snapshot.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	full := blob.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(full)); err != nil {
		t.Fatalf("full blob rejected: %v", err)
	}
	// Strides keep the quadratic prefix scan cheap; boundaries near the
	// header and each section edge are still covered by the stride-1 run
	// over the first 256 bytes.
	for cut := 0; cut < len(full); cut += max(1, min(257, len(full)-cut-1)/7) {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(full))
		}
	}
	if _, err := ReadSnapshot(bytes.NewReader(append(append([]byte(nil), full...), 0))); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A hostile header declaring huge sections must fail on the short
	// payload, not allocate the declared sizes.
	hostile := append([]byte(nil), full[:84]...)
	for _, off := range []int{56, 64, 72} {
		h := append([]byte(nil), hostile...)
		for i := 0; i < 8; i++ {
			h[off+i] = 0x7f
		}
		if _, err := ReadSnapshot(bytes.NewReader(h)); err == nil {
			t.Fatalf("hostile header (offset %d) accepted", off)
		}
	}
}
