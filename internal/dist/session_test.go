package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
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
		name    string
		opts    RunOptions
		workers int
	}
	steps := []step{
		{"unfiltered-word", RunOptions{}, 0},
		{"filtered-word", RunOptions{Labels: labels, Active: active}, 0},
		{"filtered-word-repeat", RunOptions{Labels: labels, Active: active}, 0}, // cache hit
		{"labels-only", RunOptions{Labels: labels}, 0},
		{"unfiltered-word-again", RunOptions{}, 0},
		{"filtered-word-workers", RunOptions{Labels: labels, Active: active}, 4},
		{"unfiltered-sequential", RunOptions{}, 1},
	}
	shared := NewNetwork(g)
	for _, st := range steps {
		got, err := shared.WithWorkers(st.workers).Run(wordSum{rounds: 4}, st.opts)
		if err != nil {
			t.Fatalf("%s (shared): %v", st.name, err)
		}
		got = snapshotResult(got)
		want, err := NewNetwork(g).WithWorkers(st.workers).Run(wordSum{rounds: 4}, st.opts)
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
// topology, the pooled send and State columns, the message columns and
// the output column, so a whole run performs only O(1) bookkeeping allocations -
// independent of n.
func TestSecondUnfilteredRunZeroSetupAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(630))
	g := graph.ForestUnion(3000, 3, rng)
	net := NewNetworkPermuted(g, rng).WithWorkers(1) // no goroutine spawns in the count
	if _, err := net.Run(wordSum{rounds: 4}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := net.Run(wordSum{rounds: 4}, RunOptions{}); err != nil {
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
		for _, st := range []struct {
			opts    RunOptions
			workers int
		}{
			{RunOptions{}, 0},
			{RunOptions{Labels: labels}, 0},
			{RunOptions{Labels: labels}, 1},
			{RunOptions{}, 3},
		} {
			res, err := net.WithWorkers(st.workers).Run(wordSum{rounds: 3}, st.opts)
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

// TestFillSlotsCountingMatchesParallel pins the counting slot fill
// against the slot definition: inSlots[base[v]+p] is u's base plus the
// rank of v in u's sorted port list (u = ports[v][p]), the binary-search
// formula the parallel fill used, on flat and filtered builds at worker
// counts 1, 2 and 4.
func TestFillSlotsCountingMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graph.Gnp(300, 0.03, rng)
	labels := make([]int, g.N())
	active := make([]bool, g.N())
	for v := range labels {
		labels[v] = v % 3
		active[v] = v%5 != 0
	}
	for _, f := range []struct {
		name   string
		labels []int
		active []bool
	}{
		{"flat", nil, nil},
		{"filtered", labels, active},
	} {
		for _, w := range []int{1, 2, 4} {
			topo, _ := (&session{}).topology(g, f.labels, f.active, w)
			var want []int32
			for _, v := range topo.live {
				for _, u := range topo.ports[v] {
					want = append(want, int32(topo.base[u]+sort.SearchInts(topo.ports[u], v)))
				}
			}
			if !slices.Equal(topo.inSlots, want) {
				t.Errorf("%s at %d workers: inSlots differ from the rank definition", f.name, w)
			}
		}
	}
}

// TestNetworkParallelFor pins the orchestrator sweep's sizing: a pinned
// count fans out into exactly that many chunks (capped at one index per
// chunk), and the auto default covers fewer than 512 indices in one
// inline call.
func TestNetworkParallelFor(t *testing.T) {
	net := NewNetwork(graph.Path(8))
	for _, c := range []struct {
		workers, n int
		want       [][2]int
	}{
		{3, 10, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{4, 2, [][2]int{{0, 1}, {1, 2}}},
		{1, 1000, [][2]int{{0, 1000}}},
		{0, 511, [][2]int{{0, 511}}},
		{0, 0, nil},
	} {
		var mu sync.Mutex
		var got [][2]int
		net.WithWorkers(c.workers).ParallelFor(c.n, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("workers=%d n=%d: chunks %v, want %v", c.workers, c.n, got, c.want)
		}
	}
}

// BenchmarkTopologyBuild times a cold topology build - port lists, slot
// bases and the delivery-slot fill - on a fresh session, unfiltered and
// label-filtered, at a pinned one and two workers. BenchmarkRunSetup
// times warm runs only, so it cannot see this cost.
func BenchmarkTopologyBuild(b *testing.B) {
	g := graph.ForestUnion(50000, 8, rand.New(rand.NewSource(5)))
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = v % 4
	}
	for _, f := range []struct {
		name   string
		labels []int
	}{{"flat", nil}, {"filtered", labels}} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", f.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					(&session{}).topology(g, f.labels, nil, w)
				}
			})
		}
	}
}
