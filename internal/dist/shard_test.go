package dist

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// The shard shadow suite pins sharded network views (shard.go) to the
// unsharded network bit-for-bit, the way the worker-count tests pin
// parallel execution: the same program over the same network must yield
// identical Results at every shard count, under filters, and across
// pooled-scratch reuse.

// shardCounts are the partitions every shadow case sweeps: flat baseline
// (1), small counts, a count that does not divide n, and "auto".
func shardCounts(t *testing.T, n int) []graph.Sharding {
	t.Helper()
	var out []graph.Sharding
	for _, k := range []int{1, 2, 4, 7} {
		sh, err := graph.NewSharding(n, k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sh)
	}
	return append(out, graph.AutoSharding(n))
}

// runSharded runs algo on a Sharded view of net and strips wall time.
func runSharded(t *testing.T, net *Network, sh graph.Sharding, algo Algorithm, opts RunOptions) *Result {
	t.Helper()
	view, err := net.Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	res, err := view.Run(algo, opts)
	if err != nil {
		t.Fatalf("sharded run (%d shards): %v", sh.NumShards(), err)
	}
	res.Wall = 0
	return res
}

// shadowShards runs algo flat, then at every shard count, demanding
// bit-for-bit identical Results throughout.
func shadowShards(t *testing.T, net *Network, algo Algorithm, opts RunOptions) {
	t.Helper()
	flat, err := net.Run(algo, opts)
	if err != nil {
		t.Fatalf("flat run: %v", err)
	}
	flat.Wall = 0
	for _, sh := range shardCounts(t, net.Graph().N()) {
		got := runSharded(t, net, sh, algo, opts)
		if !reflect.DeepEqual(flat, got) {
			t.Fatalf("%d shards diverged from flat: rounds %d/%d messages %d/%d",
				sh.NumShards(), got.Rounds, flat.Rounds, got.Messages, flat.Messages)
		}
	}
}

func TestShardedMatchesFlatOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(800 + seed))
		g := graph.Gnp(200, 0.04, rng)
		net := NewNetworkPermuted(g, rng)
		shadowShards(t, net, wordGossip{rounds: 6}, RunOptions{})
	}
}

func TestShardedMatchesFlatMultiWord(t *testing.T) {
	rng := rand.New(rand.NewSource(810))
	net := NewNetworkPermuted(graph.Grid(12, 12), rng)
	shadowShards(t, net, tripleTag{rounds: 5}, RunOptions{})
}

func TestShardedMatchesFlatUnderFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(820))
	g := graph.ForestUnion(300, 4, rng)
	net := NewNetworkPermuted(g, rng)
	labels := make([]int, g.N())
	active := make([]bool, g.N())
	for v := range labels {
		labels[v] = rng.Intn(3)
		active[v] = rng.Intn(5) > 0
	}
	shadowShards(t, net, wordGossip{rounds: 5}, RunOptions{Labels: labels, Active: active})
}

// More shards than vertices: the trailing shards are empty.
func TestShardedEmptyShards(t *testing.T) {
	rng := rand.New(rand.NewSource(830))
	g := graph.Path(9)
	net := NewNetworkPermuted(g, rng)
	flat, err := net.Run(wordGossip{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flat.Wall = 0
	sh, err := graph.NewSharding(g.N(), 30)
	if err != nil {
		t.Fatal(err)
	}
	got := runSharded(t, net, sh, wordGossip{rounds: 4}, RunOptions{})
	if !reflect.DeepEqual(flat, got) {
		t.Fatal("30 shards over 9 vertices diverged from flat")
	}
}

func TestShardedParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(840))
	g := graph.ForestUnion(600, 4, rng)
	net := NewNetworkPermuted(g, rng)
	sh, err := graph.NewSharding(g.N(), 4)
	if err != nil {
		t.Fatal(err)
	}
	view, err := net.Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		res, err := view.WithWorkers(workers).Run(wordGossip{rounds: 8}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res.Wall = 0
		return res
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Fatal("sharded worker-pool execution diverged from sequential execution")
	}
}

// One sharded view across repeated runs and alternating filters: the
// pooled columns and the topology cache must reproduce the fresh-session
// results exactly.
func TestShardedNetworkReusableAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(850))
	g := graph.ForestUnion(400, 3, rng)
	net := NewNetworkPermuted(g, rng)
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = rng.Intn(2)
	}
	sh, err := graph.NewSharding(g.N(), 3)
	if err != nil {
		t.Fatal(err)
	}
	view, err := net.Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	cases := []RunOptions{{}, {Labels: labels}, {}, {Labels: labels}}
	var first []*Result
	for round := 0; round < 2; round++ {
		for i, opts := range cases {
			res, err := view.Run(wordGossip{rounds: 5}, opts)
			if err != nil {
				t.Fatal(err)
			}
			res.Wall = 0
			if round == 0 {
				first = append(first, res)
			} else if !reflect.DeepEqual(first[i], res) {
				t.Fatalf("sharded rerun %d diverged after scratch reuse", i)
			}
		}
	}
}

// Input and output columns on a sharded view: the per-vertex input words
// and the output column must behave exactly as on the flat engine.
func TestShardedWordIO(t *testing.T) {
	rng := rand.New(rand.NewSource(860))
	g := graph.Gnp(150, 0.05, rng)
	net := NewNetworkPermuted(g, rng)
	shadowShards(t, net, seedMix{}, RunOptions{InputWords: seedMixInputs(g, rng)})
}

// Halting sends must deliver exactly once on sharded views too.
func TestShardedHaltingSendDeliveredExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(870))
	g := graph.Star(6)
	net := NewNetworkPermuted(g, rng)
	sh, err := graph.NewSharding(g.N(), 3)
	if err != nil {
		t.Fatal(err)
	}
	view, err := net.Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := net.Run(haltSender{until: 5}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := view.Run(haltSender{until: 5}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flat.Wall, got.Wall = 0, 0
	if !reflect.DeepEqual(flat, got) {
		t.Fatal("sharded halting-send delivery diverged from flat")
	}
}

func TestShardedValidationAndAccessors(t *testing.T) {
	g := graph.Path(10)
	net := NewNetwork(g)
	if net.Shards() != 1 || net.Sharding().NumShards() != 0 {
		t.Fatalf("flat network reports %d shards", net.Shards())
	}
	wrong, err := graph.NewSharding(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Sharded(wrong); err == nil {
		t.Fatal("mismatched sharding accepted")
	}
	sh, err := graph.NewSharding(g.N(), 4)
	if err != nil {
		t.Fatal(err)
	}
	view, err := net.Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	if view.Shards() != 4 || view.Sharding().NumShards() != 4 {
		t.Fatalf("sharded view reports %d shards", view.Shards())
	}
	// Single-shard and zero-value shardings normalize to the flat engine.
	one, err := graph.NewSharding(g.N(), 1)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := net.Sharded(one)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Shards() != 1 {
		t.Fatalf("single-shard view reports %d shards", v1.Shards())
	}
	v0, err := net.Sharded(graph.Sharding{})
	if err != nil {
		t.Fatal(err)
	}
	if v0.Shards() != 1 {
		t.Fatalf("zero-sharding view reports %d shards", v0.Shards())
	}
	if _, err := NewNetworkSharded(g, sh); err != nil {
		t.Fatal(err)
	}
}

// Per-shard probe telemetry: shard stats must be internally consistent
// (live and messages summing to the record's own fields, RunRecord
// carrying the shard count) and must not perturb results.
func TestShardedProbeTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(880))
	g := graph.ForestUnion(600, 4, rng)
	net := NewNetworkPermuted(g, rng)
	sh, err := graph.NewSharding(g.N(), 4)
	if err != nil {
		t.Fatal(err)
	}
	view, err := net.Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := view.Run(wordGossip{rounds: 8}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	p := NewProbe(sink)
	probed, err := view.WithProbe(p).Run(wordGossip{rounds: 8}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	plain.Wall, probed.Wall = 0, 0
	if !reflect.DeepEqual(plain, probed) {
		t.Fatal("probed sharded run diverged from unprobed")
	}
	if len(sink.runs) != 1 || sink.runs[0].Shards != 4 {
		t.Fatalf("run record shards = %d, want 4", sink.runs[0].Shards)
	}
	if len(sink.rounds) != probed.Rounds {
		t.Fatalf("%d round records for %d rounds", len(sink.rounds), probed.Rounds)
	}
	var msgSum int64
	for _, r := range sink.rounds {
		if len(r.Shards) != 4 {
			t.Fatalf("round %d carries %d shard stats", r.Round, len(r.Shards))
		}
		live, msgs := 0, int64(0)
		for _, ss := range r.Shards {
			live += ss.Live
			msgs += ss.Messages
		}
		if live != r.Live {
			t.Fatalf("round %d: shard live sums to %d, record says %d", r.Round, live, r.Live)
		}
		if msgs != r.Messages {
			t.Fatalf("round %d: shard messages sum to %d, record says %d", r.Round, msgs, r.Messages)
		}
		msgSum += msgs
	}
	if msgSum != probed.Messages {
		t.Fatalf("shard messages sum to %d over the run, result says %d", msgSum, probed.Messages)
	}
	// Flat runs carry no shard stats.
	sink2 := &memSink{}
	p2 := NewProbe(sink2)
	if _, err := net.WithProbe(p2).Run(wordGossip{rounds: 8}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	p2.Close()
	if sink2.runs[0].Shards != 0 {
		t.Fatalf("flat run record shards = %d", sink2.runs[0].Shards)
	}
	for _, r := range sink2.rounds {
		if r.Shards != nil {
			t.Fatal("flat round record carries shard stats")
		}
	}
}

// stepFanout gossips for a few rounds and records the largest number of
// goroutines inside StepWords at once. In round 1 every vertex that is a
// multiple of hold sleeps briefly, so steps running side by side overlap
// inside StepWords even on one CPU.
type stepFanout struct {
	in, peak *atomic.Int64
	hold     int
}

func (stepFanout) MessageWords() int { return 1 }
func (stepFanout) InputWidth() int   { return 0 }
func (stepFanout) OutputWidth() int  { return 0 }
func (stepFanout) InitWords(n *Node) { n.SendAllWord(1) }

func (f stepFanout) StepWords(n *Node, inbox WordInbox) {
	c := f.in.Add(1)
	defer f.in.Add(-1)
	for {
		old := f.peak.Load()
		if c <= old || f.peak.CompareAndSwap(old, c) {
			break
		}
	}
	if n.Round() == 1 && n.Vertex()%f.hold == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if n.Round() >= 4 {
		n.Halt()
		return
	}
	n.SendAllWord(1)
}

// A pinned worker count bounds the step fan-out of probed sharded runs
// too: with WithWorkers(2) on an 8-shard view, the probed step walks the
// shard segments on at most 2 goroutines, like the unprobed one. Each
// shard's first vertex holds its step, so a fan-out of one goroutine
// per shard would show up as 8 steps at once.
func TestShardedProbeHonorsWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(900))
	g := graph.ForestUnion(4000, 4, rng)
	const shards = 8
	sh, err := graph.NewSharding(g.N(), shards)
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewNetworkPermuted(g, rng).Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProbe(nullSink{})
	defer p.Close()
	const workers = 2
	fanout := func(net *Network) int64 {
		var in, peak atomic.Int64
		prog := stepFanout{in: &in, peak: &peak, hold: g.N() / shards}
		if _, err := net.WithWorkers(workers).Run(prog, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		return peak.Load()
	}
	plain, probed := fanout(view), fanout(view.WithProbe(p))
	if plain > workers || probed > workers {
		t.Fatalf("steps at once: %d unprobed, %d probed; want at most %d", plain, probed, workers)
	}
}

// A sharded view still rejects misuse with the engine's own messages.
func TestShardedSendValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(890))
	g := graph.Path(20)
	net := NewNetworkPermuted(g, rng)
	sh, err := graph.NewSharding(g.N(), 3)
	if err != nil {
		t.Fatal(err)
	}
	view, err := net.Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	wantContained(t, "dist: node", func() (*Result, error) {
		return view.Run(crossSender{}, RunOptions{})
	})
}
