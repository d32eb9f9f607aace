package dist

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/graph"
)

// This file implements the persistent per-Network session: the simulation
// state that depends only on the (graph, filter) pair - visible port
// lists, live sets, columnar slot bases and the delivery table - is
// built once (in parallel) and cached, so the dozens of phase runs a
// coloring pipeline performs on one network stop re-sweeping the graph.
// The session also pools the per-run mutable state (live list, send
// counters, State column, step cursors, message columns), which makes
// the setup of a repeated run allocation-free; see the ownership notes
// in doc.go.
//
// Cache structure. The unfiltered topology (nil Labels/Active - or
// filters equivalent to it: uniform labels, all-true active) is cached
// unconditionally, since every pipeline's heaviest runs use it. Filtered
// topologies are cached in a small LRU keyed by the (Labels, Active)
// signature, because orchestrators revisit the same filter several times
// per pipeline (an H-partition, an orientation exchange and a
// wait-for-parents run all restrict to the same z-labels) with other
// filters in between. Lookups compare content, not slice identity, so
// callers that compose labels in place still hit.

// maxFilteredTopologies caps the filtered-topology LRU. Pipelines revisit
// a filter within a few runs (see above); deep recursions that cycle
// through more distinct filters than this simply rebuild on reuse, which
// bounds the cache at O(maxFilteredTopologies * (n+m)) words.
const maxFilteredTopologies = 4

// topology is the immutable per-(graph, filter) simulation wiring shared
// by runs: it is built once, never mutated afterwards, and may be read
// concurrently by overlapping runs.
type topology struct {
	// ports[v] lists v's visible neighbors in ascending order; nil marks
	// an inactive vertex (filtered topologies share one flat backing).
	ports [][]int
	// live lists the active vertices in ascending order.
	live []int
	// base[v] is the first columnar slot of v: slot ranges
	// [base[v], base[v]+deg(v)) partition the visible directed edges in
	// ascending (vertex, port) order - the message-column and PerPort
	// layout of batch.go / wordio.go.
	base []int
	// inSlots[base[v]+p] is the slot neighbor u = ports[v][p] writes for
	// v: u's base plus v's position in u's port list.
	inSlots    []int32
	totalPorts int
}

// emptyPorts marks active degree-0 vertices in filtered topologies
// (ports[v] == nil means inactive).
var emptyPorts = make([]int, 0)

// buildUnfiltered assembles the whole-graph topology. The port lists are
// the graph's own adjacency slices; only the slot table is computed.
func (sc *session) buildUnfiltered(g *graph.Graph) *topology {
	n := g.N()
	t := &topology{
		ports: make([][]int, n),
		live:  make([]int, n),
		base:  make([]int, n),
	}
	next := 0
	for v := 0; v < n; v++ {
		t.live[v] = v
		nbrs := g.Neighbors(v)
		if nbrs == nil {
			// ports[v] == nil marks inactivity; an isolated vertex of the
			// unfiltered topology is live with zero ports.
			nbrs = emptyPorts
		}
		t.ports[v] = nbrs
		t.base[v] = next
		next += len(nbrs)
	}
	t.totalPorts = next
	t.inSlots = make([]int32, next)
	fillSlots(t)
	return t
}

// buildFiltered assembles the topology of a label/active-filtered run.
// The per-vertex passes (visibility counting, port filling) run in
// parallel; the O(n) prefix sums and the slot fill are serial.
func (sc *session) buildFiltered(g *graph.Graph, labels []int, active []bool, workers int) *topology {
	n := g.N()
	t := &topology{
		ports: make([][]int, n),
		base:  make([]int, n),
	}
	deg := make([]int, n)
	parfor(n, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if active != nil && !active[v] {
				deg[v] = -1 // inactive marker
				continue
			}
			deg[v] = countVisible(g, labels, active, v)
		}
	})
	next, liveN := 0, 0
	for v := 0; v < n; v++ {
		if deg[v] < 0 {
			continue
		}
		t.base[v] = next
		next += deg[v]
		liveN++
	}
	t.totalPorts = next
	t.live = make([]int, 0, liveN)
	for v := 0; v < n; v++ {
		if deg[v] >= 0 {
			t.live = append(t.live, v)
		}
	}
	portsFlat := make([]int, next)
	parfor(n, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if deg[v] < 0 {
				continue
			}
			if deg[v] == 0 {
				t.ports[v] = emptyPorts
				continue
			}
			b := t.base[v]
			t.ports[v] = appendVisible(portsFlat[b:b:b+deg[v]], g, labels, active, v)
		}
	})
	t.inSlots = make([]int32, next)
	fillSlots(t)
	return t
}

// fillSlots computes the delivery-slot table in one ascending sweep over
// the senders: inSlots[base[v]+p] is u's base plus v's rank in u's
// sorted port list, for u = ports[v][p]. Port lists are sorted ascending
// and visibility is symmetric, so when vertices are visited in ascending
// order, v is the cnt[u]-th visible neighbor u has been reached by and
// its rank is exactly cnt[u] - a counter increment per port instead of a
// binary search. The sweep stays serial at every worker count: a
// binary-search fill split over two cores is 3-4x slower than it.
func fillSlots(t *topology) {
	cnt := make([]int32, len(t.ports))
	for v, ports := range t.ports {
		if len(ports) == 0 {
			continue
		}
		slots := t.inSlots[t.base[v]:]
		for p, u := range ports {
			slots[p] = int32(t.base[u]) + cnt[u]
			cnt[u]++
		}
	}
}

// uniformInts reports whether all values are equal (a uniform label
// vector induces the unfiltered topology). The empty vector - a non-nil
// zero-length Labels slice on an empty graph - is uniform.
func uniformInts(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[0] {
			return false
		}
	}
	return true
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

// filterHash is a 64-bit content signature of the (labels, active) pair,
// used to skip the full comparison for non-matching cache entries. Hits
// are always verified by comparing content, so collisions cost time, not
// correctness.
func filterHash(labels []int, active []bool) uint64 {
	h := uint64(len(labels))*0x9e3779b97f4a7c15 + uint64(len(active))
	mix := func(x uint64) {
		h ^= x
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	for _, l := range labels {
		mix(uint64(l))
	}
	var acc uint64
	for i, b := range active {
		if b {
			acc |= 1 << (i & 63)
		}
		if i&63 == 63 {
			mix(acc)
			acc = 0
		}
	}
	mix(acc)
	return h
}

// topoEntry is one filtered-topology cache slot; labels/active are owned
// copies of the filter signature (callers mutate theirs between runs).
type topoEntry struct {
	hash   uint64
	labels []int
	active []bool
	topo   *topology
	tick   uint64
}

// session is the per-Network persistent state. All WithWorkers /
// WithProbe / WithContext views of a network share one session, so any view's runs
// warm the caches for all of them. Every method is safe for concurrent
// use; overlapping runs fall back to fresh allocations for the pooled
// per-run state and build (then race to publish) topologies.
type session struct {
	mu         sync.Mutex
	unfiltered *topology
	filtered   []*topoEntry
	tick       uint64
	// run is the pooled per-run scratch (nil while borrowed or never
	// built); out is the pooled output column of wordio.go.
	run *runScratch
	out []int64
}

// topology returns the cached wiring for the given filters, building and
// publishing it on a miss. Filters equivalent to no filter (uniform
// labels, all-true active) are normalized to the unfiltered topology.
// hit reports whether the wiring came out of the cache (the session
// event RunRecord.TopoCached surfaces); a build that loses a publish
// race still counts as a miss - the sweep was paid.
func (sc *session) topology(g *graph.Graph, labels []int, active []bool, workers int) (t *topology, hit bool) {
	if labels != nil && uniformInts(labels) {
		labels = nil
	}
	if active != nil && allTrue(active) {
		active = nil
	}
	if labels == nil && active == nil {
		sc.mu.Lock()
		t = sc.unfiltered
		sc.mu.Unlock()
		if t != nil {
			return t, true
		}
		t = sc.buildUnfiltered(g)
		sc.mu.Lock()
		if sc.unfiltered == nil {
			sc.unfiltered = t
		} else {
			t = sc.unfiltered // a concurrent build won the race
		}
		sc.mu.Unlock()
		return t, false
	}
	h := filterHash(labels, active)
	sc.mu.Lock()
	sc.tick++
	tick := sc.tick
	for _, e := range sc.filtered {
		if e.hash == h && slices.Equal(e.labels, labels) && slices.Equal(e.active, active) {
			e.tick = tick
			t = e.topo
			sc.mu.Unlock()
			return t, true
		}
	}
	sc.mu.Unlock()
	t = sc.buildFiltered(g, labels, active, workers)
	e := &topoEntry{
		hash:   h,
		labels: slices.Clone(labels),
		active: slices.Clone(active),
		topo:   t,
		tick:   tick,
	}
	sc.mu.Lock()
	// A concurrent miss on the same filter may have inserted while we
	// were building; keep the existing entry instead of wasting an LRU
	// slot on a duplicate.
	for _, x := range sc.filtered {
		if x.hash == h && slices.Equal(x.labels, labels) && slices.Equal(x.active, active) {
			x.tick = tick
			t = x.topo
			sc.mu.Unlock()
			return t, false
		}
	}
	if len(sc.filtered) < maxFilteredTopologies {
		sc.filtered = append(sc.filtered, e)
	} else {
		oldest := 0
		for i, x := range sc.filtered {
			if x.tick < sc.filtered[oldest].tick {
				oldest = i
			}
		}
		sc.filtered[oldest] = e
	}
	sc.mu.Unlock()
	return t, false
}

// runScratch is the pooled mutable state of one run. One run borrows the
// bundle for its whole lifetime and releases it on completion; a run that
// finds the pool busy (concurrent runs on one network) simply allocates a
// fresh bundle, which is then the one released back. The embedded
// simulation keeps the per-run header itself off the heap on reuse.
type runScratch struct {
	sim       simulation
	live      []int
	liveSpare []int
	clearQ    []int
	sent      []int64
	states    []any
	wwords    [2][]int64
	wsent     [2][]uint8
	// cuts is the live-list chunking of the current round's step
	// (stepRound): chunk c covers live[cuts[c]:cuts[c+1]], stepped
	// through cursors[c].
	cuts    []int
	cursors []cursor
	// tr is the round tracer of a probed run (probe.go); unused on
	// unprobed runs.
	tr roundTracer
}

// borrowRun returns the pooled scratch bundle (pooled=true) or a fresh
// one when the pool is busy or cold - the session event
// RunRecord.ScratchPooled surfaces the distinction.
func (sc *session) borrowRun() (rs *runScratch, pooled bool) {
	sc.mu.Lock()
	rs = sc.run
	sc.run = nil
	sc.mu.Unlock()
	if rs == nil {
		return new(runScratch), false
	}
	return rs, true
}

func (sc *session) releaseRun(rs *runScratch) {
	sc.mu.Lock()
	sc.run = rs
	sc.mu.Unlock()
}

// borrowOut returns a zeroed word column of the given length, reusing
// (and re-zeroing, in parallel) the pooled backing array when it is large
// enough. The column is re-published by the run's completion, so the NEXT
// run's borrow is what reclaims Result.OutputWords.
func (sc *session) borrowOut(n, workers int) []int64 {
	sc.mu.Lock()
	col := sc.out
	sc.out = nil
	sc.mu.Unlock()
	if cap(col) < n {
		return make([]int64, n)
	}
	col = col[:n]
	parfor(n, workers, func(lo, hi int) {
		clear(col[lo:hi])
	})
	return col
}

func (sc *session) publishOut(col []int64) {
	sc.mu.Lock()
	if cap(col) > cap(sc.out) {
		sc.out = col
	}
	sc.mu.Unlock()
}

// grown returns s resized to length n, reallocating only on capacity
// growth. Contents are unspecified; callers overwrite what they read.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// parfor splits [0, n) into one contiguous chunk per worker and runs fn
// on all of them concurrently (inline when a single worker suffices).
// fn must touch disjoint state per index range.
func parfor(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelFor runs fn over the contiguous chunks of [0, n) on the
// network's worker pool, sized like the engine's own sweeps: a pinned
// count (WithWorkers) fans out exactly, capped at one index per
// goroutine, while the auto default runs inline below 512 indices and
// keeps at least 64 per goroutine. Orchestrators use it for their setup
// and decode sweeps, so a pipeline's pinned worker count governs those
// too. fn must touch disjoint state per index range; the split is
// deterministic, so any fn whose chunks are independent yields identical
// results at every worker count.
func (net *Network) ParallelFor(n int, fn func(lo, hi int)) {
	parfor(n, net.sweepWorkers(n), fn)
}

// Workers returns the worker count this network's runs resolve to: the
// WithWorkers count when set, else (auto) GOMAXPROCS.
func (net *Network) Workers() int {
	if net.workers > 0 {
		return net.workers
	}
	return runtime.GOMAXPROCS(0)
}

// WithWorkers returns a view of the network sharing the graph, identifier
// assignment and session whose Runs and ParallelFor sweeps use w workers
// (0 restores the auto heuristic). A pinned count always fans out
// exactly that wide, which is how tests force both engine paths and how
// benchmarks record a speedup curve. Like WithProbe, the view pins the
// fan-out of every phase of a multi-phase pipeline without threading an
// option through every signature; results are bit-for-bit identical at
// every setting.
func (net *Network) WithWorkers(w int) *Network {
	if w < 0 {
		w = 0
	}
	c := *net
	c.workers = w
	return &c
}

// sweepWorkers returns the view's fan-out for a sweep over m items - a
// round's steps, a setup sweep, a ParallelFor: a pinned count
// (WithWorkers) is honored as-is, capped at one item per goroutine; the
// auto default parallelizes only beyond autoParallelThreshold
// participants with at least minChunk items per goroutine.
func (net *Network) sweepWorkers(m int) int {
	w := net.Workers()
	if w <= 1 || m <= 1 {
		return 1
	}
	if net.workers == 0 {
		if m < autoParallelThreshold {
			return 1
		}
		if max := (m + minChunk - 1) / minChunk; w > max {
			w = max
		}
	}
	if w > m {
		w = m
	}
	return w
}
