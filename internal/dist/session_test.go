package dist

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// This file covers the persistent per-Network session (session.go): runs
// that reuse cached topologies and pooled per-run state must stay
// bit-for-bit identical to runs on a fresh network, the filtered-
// topology cache must key on content (and normalize filters equivalent
// to no filter), repeated unfiltered word runs must perform no setup
// allocations, and back-to-back or concurrent pipelines on one network
// must not interfere.

// wordSum is a minimal word-I/O program: flood the identifier for a few
// rounds, output the running digest. Steady-state steps allocate
// nothing, so it doubles as the zero-setup-allocation probe.
type wordSum struct{ rounds int }

func (wordSum) MessageWords() int { return 1 }
func (wordSum) InputWidth() int   { return 0 }
func (wordSum) OutputWidth() int  { return 1 }

func (wordSum) InitWords(n *Node) { n.SendAllWord(int64(n.ID())) }

func (a wordSum) StepWords(n *Node, inbox WordInbox) {
	acc := n.OutputWords()[0]
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			acc = acc*31 + inbox.Word(p) + int64(p)
		}
	}
	n.SetOutputWord(acc)
	if n.Round() >= a.rounds {
		n.Halt()
		return
	}
	n.SendAllWord(int64(n.ID()))
}

// sessionGraph is a graph that exercises the session edge cases: an
// isolated vertex (degree 0 in the unfiltered topology) plus a random
// forest union.
func sessionGraph(t *testing.T, seed int64) (*graph.Graph, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(401)
	g0 := graph.ForestUnion(400, 3, rng)
	for v := 0; v < g0.N(); v++ {
		for _, u := range g0.Neighbors(v) {
			if u > v {
				if err := b.AddEdge(v, u); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Vertex 400 stays isolated.
	return b.Build(), rng
}

// snapshotResult deep-copies a Result so later runs on the same network
// (which reclaim the pooled output column) cannot disturb it.
func snapshotResult(res *Result) *Result {
	c := *res
	c.Wall = 0 // host wall time, not deterministic
	if res.OutputWords != nil {
		c.OutputWords = append([]int64(nil), res.OutputWords...)
	}
	return &c
}

// TestSessionReuseMatchesFreshNetwork drives one shared network through a
// pipeline-shaped sequence of runs - repeated filters (cache hits), changed label contents in a reused slice, and
// both worker modes - and requires every result to equal the same run on
// a freshly built network.
func TestSessionReuseMatchesFreshNetwork(t *testing.T) {
	g, _ := sessionGraph(t, 610)
	n := g.N()
	labels := make([]int, n)
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		labels[v] = v % 3
		active[v] = v%7 != 0
	}
	type step struct {
		name string
		opts RunOptions
	}
	steps := []step{
		{"unfiltered-word", RunOptions{}},
		{"filtered-word", RunOptions{Labels: labels, Active: active}},
		{"filtered-word-repeat", RunOptions{Labels: labels, Active: active}}, // cache hit
		{"labels-only", RunOptions{Labels: labels}},
		{"unfiltered-word-again", RunOptions{}},
		{"filtered-word-workers", RunOptions{Labels: labels, Active: active, Workers: 4}},
		{"unfiltered-sequential", RunOptions{Workers: 1}},
	}
	shared := NewNetwork(g)
	for _, st := range steps {
		got, err := shared.Run(wordSum{rounds: 4}, st.opts)
		if err != nil {
			t.Fatalf("%s (shared): %v", st.name, err)
		}
		got = snapshotResult(got)
		want, err := NewNetwork(g).Run(wordSum{rounds: 4}, st.opts)
		if err != nil {
			t.Fatalf("%s (fresh): %v", st.name, err)
		}
		if !reflect.DeepEqual(got, snapshotResult(want)) {
			t.Fatalf("%s: shared-session result diverges from fresh network", st.name)
		}
	}

	// Mutating the label contents of the SAME slice must miss the cache
	// (content keying) and change the result accordingly.
	for v := 0; v < n; v++ {
		labels[v] = v % 2
	}
	got, err := shared.Run(wordSum{rounds: 4}, RunOptions{Labels: labels})
	if err != nil {
		t.Fatal(err)
	}
	got = snapshotResult(got)
	want, err := NewNetwork(g).Run(wordSum{rounds: 4}, RunOptions{Labels: labels})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snapshotResult(want)) {
		t.Fatal("mutated labels: shared-session result diverges from fresh network")
	}
}

// TestTopologyCacheReuseAndNormalization white-boxes the session cache:
// repeated filters return the same topology object, uniform labels and
// all-true active masks normalize to the unfiltered topology, and
// changed label contents in a reused slice produce a different topology.
func TestTopologyCacheReuseAndNormalization(t *testing.T) {
	g, rng := sessionGraph(t, 620)
	n := g.N()
	net := NewNetwork(g)
	sess := net.sess

	unf, hit := sess.topology(g, nil, nil, 1)
	if hit {
		t.Fatal("first unfiltered build reported a cache hit")
	}
	if got, hit := sess.topology(g, nil, nil, 1); got != unf || !hit {
		t.Fatal("unfiltered topology rebuilt on second use")
	}
	uniform := make([]int, n)
	for v := range uniform {
		uniform[v] = 9
	}
	if got, hit := sess.topology(g, uniform, nil, 1); got != unf || !hit {
		t.Fatal("uniform labels did not normalize to the unfiltered topology")
	}
	allOn := make([]bool, n)
	for v := range allOn {
		allOn[v] = true
	}
	if got, hit := sess.topology(g, nil, allOn, 1); got != unf || !hit {
		t.Fatal("all-true active mask did not normalize to the unfiltered topology")
	}

	labels := make([]int, n)
	for v := range labels {
		labels[v] = rng.Intn(3)
	}
	f1, hit := sess.topology(g, labels, nil, 1)
	if hit {
		t.Fatal("first filtered build reported a cache hit")
	}
	if f1 == unf {
		t.Fatal("filtered topology aliased the unfiltered one")
	}
	if got, hit := sess.topology(g, labels, nil, 1); got != f1 || !hit {
		t.Fatal("filtered topology rebuilt despite identical filters")
	}
	// Same slice, different content: must be a different topology.
	labels[0] += 17
	if got, _ := sess.topology(g, labels, nil, 1); got == f1 {
		t.Fatal("content change in a reused labels slice hit the stale cache entry")
	}
	labels[0] -= 17
	if got, hit := sess.topology(g, labels, nil, 1); got != f1 || !hit {
		t.Fatal("restored labels missed the cache")
	}

	// The cached wiring must agree with the reference helpers.
	for v := 0; v < n; v++ {
		want := VisiblePorts(g, labels, nil, v)
		if !reflect.DeepEqual(append([]int{}, f1.ports[v]...), append([]int{}, want...)) {
			t.Fatalf("vertex %d: cached ports %v, want %v", v, f1.ports[v], want)
		}
	}
}

// TestSecondUnfilteredRunZeroSetupAllocs pins the pooling contract: once
// a network has run a word-I/O program, repeating it reuses the cached
// topology, the pooled node array, the message columns and the output
// column, so a whole run performs only O(1) bookkeeping allocations -
// independent of n.
func TestSecondUnfilteredRunZeroSetupAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(630))
	g := graph.ForestUnion(3000, 3, rng)
	net := NewNetworkPermuted(g, rng)
	opts := RunOptions{Workers: 1} // no goroutine spawns in the count
	if _, err := net.Run(wordSum{rounds: 4}, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := net.Run(wordSum{rounds: 4}, opts); err != nil {
			t.Fatal(err)
		}
	})
	// The Result header is the only per-run heap object left; leave
	// slack for test-harness noise but stay far below anything O(n).
	if allocs > 8 {
		t.Fatalf("second unfiltered word run allocates %.0f objects; setup reuse regressed", allocs)
	}
}

// TestBackToBackPipelinesOneNetwork runs two full multi-phase sequences
// (mixed filters and worker counts) back-to-back on one network; under
// -race this doubles as the detector pass over the session's borrow/
// publish lifecycle. The second pipeline must reproduce the first
// bit-for-bit.
func TestBackToBackPipelinesOneNetwork(t *testing.T) {
	g, rng := sessionGraph(t, 640)
	n := g.N()
	labels := make([]int, n)
	for v := 0; v < n; v++ {
		labels[v] = rng.Intn(4)
	}
	net := NewNetwork(g)
	pipeline := func() []*Result {
		var out []*Result
		for _, opts := range []RunOptions{
			{},
			{Labels: labels},
			{Labels: labels, Workers: 1},
			{Workers: 3},
		} {
			res, err := net.Run(wordSum{rounds: 3}, opts)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, snapshotResult(res))
		}
		return out
	}
	first := pipeline()
	second := pipeline()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("second pipeline on the same network diverged from the first")
	}
}

// TestNewNetworkWithIDs pins the sweep-harness constructor: a network
// rebuilt from a captured identifier assignment reproduces the
// permuted original bit for bit, and non-permutations are rejected.
func TestNewNetworkWithIDs(t *testing.T) {
	g, rng := sessionGraph(t, 660)
	orig := NewNetworkPermuted(g, rng)
	want, err := orig.Run(wordSum{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want = snapshotResult(want)
	rebuilt, err := NewNetworkWithIDs(g, orig.IDs())
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.Run(wordSum{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshotResult(got), want) {
		t.Fatal("network rebuilt from captured IDs diverges from the original")
	}
	bad := orig.IDs()
	bad[0] = bad[1] // duplicate
	if _, err := NewNetworkWithIDs(g, bad); err == nil {
		t.Fatal("duplicate identifiers accepted")
	}
	if _, err := NewNetworkWithIDs(g, bad[:10]); err == nil {
		t.Fatal("short identifier slice accepted")
	}
}

// TestConcurrentRunsOneNetwork overlaps runs on one shared network from
// several goroutines: the pooled scratch must degrade to fresh
// allocations without corrupting results (each goroutine compares
// against a reference result computed on a private network).
func TestConcurrentRunsOneNetwork(t *testing.T) {
	g, _ := sessionGraph(t, 650)
	net := NewNetwork(g)
	ref, err := NewNetwork(g).Run(wordSum{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refCopy := snapshotResult(ref)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	diverged := make([]bool, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				res, err := net.Run(wordSum{rounds: 4}, RunOptions{})
				if err != nil {
					errs[i] = err
					return
				}
				// OutputWords may be reclaimed by a concurrent run the
				// moment this one returns, so compare the scalar fields
				// only; TestSessionReuseMatchesFreshNetwork covers the
				// columns in the sequential setting.
				if res.Rounds != refCopy.Rounds || res.Messages != refCopy.Messages {
					diverged[i] = true
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if diverged[i] {
			t.Fatalf("goroutine %d: concurrent run diverged from the reference", i)
		}
	}
}

// TestSessionValueOwnership pins the session value store's contract:
// one build per key per session, the same value returned to every
// WithWorkers/WithProbe/WithContext view, a fresh store on a Sharded
// view (fresh session), and safe concurrent access.
func TestSessionValueOwnership(t *testing.T) {
	type keyA struct{}
	type keyB struct{}
	g, _ := sessionGraph(t, 64)
	net := NewNetwork(g)

	builds := 0
	build := func() any { builds++; return &builds }
	v1 := net.SessionValue(keyA{}, build)
	v2 := net.SessionValue(keyA{}, build)
	if v1 != v2 || builds != 1 {
		t.Fatalf("second lookup rebuilt: %d builds, %p vs %p", builds, v1, v2)
	}
	if v := net.WithWorkers(2).SessionValue(keyA{}, build); v != v1 {
		t.Fatal("WithWorkers view does not share the session value")
	}
	if v := net.WithContext(context.Background()).SessionValue(keyA{}, build); v != v1 {
		t.Fatal("WithContext view does not share the session value")
	}
	if net.SessionValue(keyB{}, func() any { return "b" }) == v1 {
		t.Fatal("distinct keys collide")
	}

	sh, err := graph.NewSharding(g.N(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := net.Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	if v := sharded.SessionValue(keyA{}, func() any { return "fresh" }); v != "fresh" {
		t.Fatalf("Sharded view inherited the parent session value %v", v)
	}

	type keyC struct{}
	var wg sync.WaitGroup
	got := make([]any, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = net.SessionValue(keyC{}, func() any { return new(int) })
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatalf("concurrent lookups returned distinct values")
		}
	}
}

// TestFillSlotsCountingMatchesParallel pins the two delivery-slot fill
// strategies against each other: the single-worker counting sweep and
// the parallel binary-search fill must produce identical slot tables
// (and boundary tables on sharded topologies) on flat, filtered and
// sharded builds.
func TestFillSlotsCountingMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graph.Gnp(300, 0.03, rng)
	labels := make([]int, g.N())
	active := make([]bool, g.N())
	for v := range labels {
		labels[v] = v % 3
		active[v] = v%5 != 0
	}
	sh, err := graph.NewSharding(g.N(), 4)
	if err != nil {
		t.Fatal(err)
	}
	builds := []struct {
		name string
		make func(workers int) *topology
	}{
		{"flat", func(w int) *topology {
			return (&session{}).buildUnfiltered(g, w)
		}},
		{"filtered", func(w int) *topology {
			return (&session{}).buildFiltered(g, labels, active, w)
		}},
		{"sharded", func(w int) *topology {
			net, err := NewNetwork(g).Sharded(sh)
			if err != nil {
				t.Fatal(err)
			}
			return net.sess.buildUnfiltered(g, w)
		}},
	}
	for _, b := range builds {
		seq := b.make(1)
		par := b.make(4)
		if !slices.Equal(seq.inSlots, par.inSlots) {
			t.Errorf("%s: counting fill and parallel fill disagree on inSlots", b.name)
		}
		if (seq.shard == nil) != (par.shard == nil) {
			t.Fatalf("%s: shard structure diverges", b.name)
		}
		if seq.shard != nil && !slices.Equal(seq.shard.inShard, par.shard.inShard) {
			t.Errorf("%s: counting fill and parallel fill disagree on inShard", b.name)
		}
	}
}
