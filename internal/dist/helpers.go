package dist

import (
	"fmt"

	"repro/internal/graph"
)

// IntsFromWords decodes a run's output column into dst (one word per
// vertex; the output width must be 1, so len(dst) must equal the column
// length). It is the step that discharges the ownership contract: after
// the copy, the engine-owned column may be reclaimed by the next run.
func IntsFromWords(res *Result, dst []int) error {
	if res.OutputWords == nil {
		return fmt.Errorf("dist: IntsFromWords on a result without an output column")
	}
	if len(dst) != len(res.OutputWords) {
		return fmt.Errorf("dist: decoding %d output words into %d ints", len(res.OutputWords), len(dst))
	}
	for v, w := range res.OutputWords {
		dst[v] = int(w)
	}
	return nil
}

// ComposeLabels refines labels a by labels b: vertices land in the same
// class iff they agree on both. Classes are renumbered densely from 0 in
// order of first appearance by vertex index, so the result is
// deterministic and directly usable as RunOptions.Labels. The slices
// must have equal length.
func ComposeLabels(a, b []int) []int {
	return ComposeLabelsInto(make([]int, len(a)), a, b, make(map[[2]int]int, len(a)))
}

// ComposeLabelsInto is ComposeLabels writing the composition into dst
// and renumbering through the caller-provided scratch map, which it
// clears first - orchestrators that compact labels once per level reuse
// both across levels instead of reallocating them. dst may alias a (in-
// place refinement); it must not alias b. Returns dst.
func ComposeLabelsInto(dst, a, b []int, ids map[[2]int]int) []int {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("dist: composing %d labels with %d into %d", len(a), len(b), len(dst)))
	}
	clear(ids)
	for v := range a {
		pair := [2]int{a[v], b[v]}
		id, ok := ids[pair]
		if !ok {
			id = len(ids)
			ids[pair] = id
		}
		dst[v] = id
	}
	return dst
}

// VisiblePorts returns the neighbors of v visible under the given
// label/active filters, in ascending vertex order - the port numbering a
// Run with the same filters uses for v's inbox and Send ports. Both
// filters may be nil. With no filters the returned slice is the graph's
// own adjacency list and must not be modified.
func VisiblePorts(g *graph.Graph, labels []int, active []bool, v int) []int {
	if labels == nil && active == nil {
		return g.Neighbors(v)
	}
	return appendVisible(make([]int, 0, len(g.Neighbors(v))), g, labels, active, v)
}

// countVisible counts v's visible neighbors without allocating.
func countVisible(g *graph.Graph, labels []int, active []bool, v int) int {
	n := 0
	for _, u := range g.Neighbors(v) {
		if labels != nil && labels[u] != labels[v] {
			continue
		}
		if active != nil && !active[u] {
			continue
		}
		n++
	}
	return n
}

// appendVisible appends v's visible neighbors to ports.
func appendVisible(ports []int, g *graph.Graph, labels []int, active []bool, v int) []int {
	for _, u := range g.Neighbors(v) {
		if labels != nil && labels[u] != labels[v] {
			continue
		}
		if active != nil && !active[u] {
			continue
		}
		ports = append(ports, u)
	}
	return ports
}

// PortColumn builds a per-port []int64 column in the engine's visible-
// port layout for the given filters (wordio.go): fill runs for every
// active vertex with its visible ports and the column slice the vertex
// owns, in parallel on the network's worker pool, reusing (and warming)
// the session's cached topology - so a Run with the same filters that
// follows pays no topology sweep. fill must only write its own out slice
// and read shared state; the returned column is caller-owned.
func (net *Network) PortColumn(labels []int, active []bool, fill func(v int, ports []int, out []int64)) []int64 {
	w, explicit := net.resolveWorkers(0)
	topo, _ := net.sess.topology(net.g, labels, active, sweepWorkersFor(net.g.N(), w, explicit))
	col := make([]int64, topo.totalPorts)
	live := topo.live
	parfor(len(live), sweepWorkersFor(len(live), w, explicit), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := live[i]
			ports := topo.ports[v]
			b := topo.base[v]
			fill(v, ports, col[b:b+len(ports):b+len(ports)])
		}
	})
	return col
}

// ForEachVisible is the package function ForEachVisible bound to the
// network's session: it serves the port lists from the cached topology
// (building and caching it on first use) instead of re-filtering the
// adjacency lists, which is what makes repeated per-port column decodes
// on the same filters O(visible edges) with no per-vertex scan. The
// ports slices are views into cached state and must not be modified.
func (net *Network) ForEachVisible(labels []int, active []bool, fn func(v int, ports []int)) {
	w, explicit := net.resolveWorkers(0)
	topo, _ := net.sess.topology(net.g, labels, active, sweepWorkersFor(net.g.N(), w, explicit))
	for _, v := range topo.live {
		fn(v, topo.ports[v])
	}
}

// ForEachVisible calls fn(v, ports) for every active vertex in ascending
// vertex order with its visible ports - the exact iteration order of the
// engine's per-port column layout (wordio.go), so orchestrators filling
// or decoding PerPort columns track a running offset across calls. The
// ports slice is reused between calls and must not be retained.
func ForEachVisible(g *graph.Graph, labels []int, active []bool, fn func(v int, ports []int)) {
	if labels == nil && active == nil {
		for v := 0; v < g.N(); v++ {
			fn(v, g.Neighbors(v))
		}
		return
	}
	var buf []int
	for v := 0; v < g.N(); v++ {
		if active != nil && !active[v] {
			continue
		}
		buf = appendVisible(buf[:0], g, labels, active, v)
		fn(v, buf)
	}
}
