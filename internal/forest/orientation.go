package forest

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dist"
	"repro/internal/graph"
)

// This file implements the orientation step shared by Lemma 2.4 and by
// Procedures Complete-Orientation / Partial-Orientation (Section 3): given
// an H-partition and a per-vertex key, orient each edge towards the
// endpoint with the lexicographically larger (level, key) pair; edges whose
// endpoints tie on both are left unoriented.
//
// With key = id, no ties occur and the result is the complete acyclic
// orientation of Lemma 2.4 (out-degree <= floor((2+eps)a), unbounded
// length). With key = a legal per-level coloring it is Procedure
// Complete-Orientation (length O(#colors * #levels)); with key = a
// defective per-level coloring it is Procedure Partial-Orientation
// (deficit <= per-level defect, length O(#colors * #levels)).
//
// The pair is one O(log n)-bit value and travels as one word. The
// exchange writes each port's direction over the per-port input column
// that carried it, so that column is the orientation's Dirs: there is
// no output column and no copy.

// orientExchange is the one-round exchange in which every vertex learns
// its neighbors' (level, key) pairs and derives its port directions
// locally: Init sends the packed pair its input slots hold, and round 1
// overwrites each slot with that port's direction.
type orientExchange struct{}

// packLevelKey encodes a (level, key) pair of int32 values as one word
// whose int64 order is the pair's lexicographic order: the level fills
// the high 32 bits, and the key the low 32 with its sign bit flipped, so
// that int32 order becomes uint32 order.
func packLevelKey(level, key int) int64 {
	return int64(level)<<32 | int64(uint32(int32(key))^1<<31)
}

// fitsInt32 reports whether x survives packLevelKey's int32 conversion.
func fitsInt32(x int) bool { return x == int(int32(x)) }

// MessageWords implements dist.Algorithm: a message is the sender's
// packed (level, key).
func (orientExchange) MessageWords() int { return 1 }

// InputWidth and OutputWidth implement dist.Algorithm: one word per
// visible port, the packed pair rewritten in place to the port's
// direction (+1 parent, -1 child, 0 unoriented/silent); no output.
func (orientExchange) InputWidth() int  { return dist.PerPort }
func (orientExchange) OutputWidth() int { return 0 }

// InitWords sends the packed pair; a degree-0 vertex has no slot.
//
//distvet:noalloc
func (orientExchange) InitWords(n *dist.Node) {
	if n.Degree() > 0 {
		n.SendAllWord(n.InputWords()[0])
	}
}

// StepWords reads the node's own word from slot 0 before overwriting
// the slots with directions: +1 when the neighbor's pair is larger (a
// parent), -1 when smaller (a child), 0 on a tie or a silent port.
//
//distvet:noalloc
func (orientExchange) StepWords(n *dist.Node, inbox dist.WordInbox) {
	ports := n.InputWords()
	if len(ports) > 0 {
		mine := ports[0]
		for p := range ports {
			var d int64
			if inbox.Has(p) {
				d = int64(cmp.Compare(inbox.Word(p), mine))
			}
			ports[p] = d
		}
	}
	n.Halt()
}

// OrientResult is a (partial) orientation in the one format every phase
// consumes: the direction column of the orientation exchange, i.e. what
// each vertex knows about its own ports after the exchange.
type OrientResult struct {
	// Dirs holds one word per visible port in the engine's per-port
	// layout under the filters the orientation ran under (active
	// vertices ascending, visible ports ascending): +1 parent, -1 child,
	// 0 unoriented. It is the column the exchange rewrote in place, owned
	// by the result. A run with the same filters takes it as its per-port
	// input column as is when its program only reads its input;
	// WaitColor, whose program writes its input, runs on a copy.
	Dirs []int64
	// labels and active are the orientation's own copies of those
	// filters (nil when unfiltered), so a caller that rewrites its labels
	// afterwards cannot shift the layout of Dirs.
	labels []int
	active []bool
	// OutDegree and Deficit are the largest number of parent and of
	// unoriented ports at any vertex (Section 2.1).
	OutDegree, Deficit int
	// LengthBound bounds the orientation's length: every directed path
	// strictly increases (level, key), so n-1 always holds; Procedures
	// Partial- and Complete-Orientation tighten it (orient.Result).
	LengthBound int
	dist.RunStats
}

// OrientByLevelKey runs the one-round orientation exchange. levels and keys
// are per-vertex; labels/active optionally restrict to subgraphs (edges
// across labels are not oriented). Each node only ever uses its own
// (level, key) and its neighbors' messages. An active vertex whose level
// or key lies outside int32 is an error, and nothing runs. The result's
// Dirs is the per-port input column the exchange rewrote in place; the
// out-degree and deficit are counted from it after the run.
func OrientByLevelKey(net *dist.Network, levels, keys []int, labels []int, active []bool) (*OrientResult, error) {
	n := net.Graph().N()
	if len(levels) != n || len(keys) != n {
		return nil, fmt.Errorf("forest: levels/keys length mismatch")
	}
	or := &OrientResult{labels: slices.Clone(labels), active: slices.Clone(active), LengthBound: max(n-1, 0)}
	// Size the column first: appending would regrow it. The pass also
	// builds the filters' topology, which the run then reuses.
	total, bad := 0, -1
	net.ForEachVisible(or.labels, or.active, func(v int, ports []int) {
		total += len(ports)
		if bad < 0 && !(fitsInt32(levels[v]) && fitsInt32(keys[v])) {
			bad = v
		}
	})
	if bad >= 0 {
		return nil, fmt.Errorf("forest: vertex %d: level %d or key %d outside int32", bad, levels[bad], keys[bad])
	}
	or.Dirs = make([]int64, total)
	off := 0
	net.ForEachVisible(or.labels, or.active, func(v int, ports []int) {
		w := packLevelKey(levels[v], keys[v])
		for i := range ports {
			or.Dirs[off+i] = w
		}
		off += len(ports)
	})
	res, err := net.Run(orientExchange{}, dist.RunOptions{InputWords: or.Dirs, Labels: or.labels, Active: or.active})
	if err != nil {
		return nil, err
	}
	or.RunStats = res.Stats()
	off = 0
	net.ForEachVisible(or.labels, or.active, func(_ int, ports []int) {
		out, def := 0, 0
		for _, d := range or.Dirs[off : off+len(ports)] {
			switch d {
			case +1:
				out++
			case 0:
				def++
			}
		}
		off += len(ports)
		or.OutDegree = max(or.OutDegree, out)
		or.Deficit = max(or.Deficit, def)
	})
	return or, nil
}

// Orientation assembles the column into a graph.Orientation of net's
// graph, for callers that verify or return one. net must be the network
// the orientation was computed on.
func (or *OrientResult) Orientation(net *dist.Network) *graph.Orientation {
	sigma := graph.NewOrientation(net.Graph())
	off := 0
	net.ForEachVisible(or.labels, or.active, func(v int, ports []int) {
		for p, d := range or.Dirs[off : off+len(ports)] {
			if d == +1 {
				_ = sigma.Orient(v, ports[p]) // ports are v's neighbors
			}
		}
		off += len(ports)
	})
	return sigma
}

// CompleteAcyclicOrientation implements Lemma 2.4: an acyclic complete
// orientation with out-degree floor((2+eps)a) in O(log n) time, via an
// H-partition followed by the (level, id) orientation exchange. Each
// result carries its own run's cost; a caller charges both runs to one
// phase by passing a WithPhase view.
func CompleteAcyclicOrientation(net *dist.Network, a int, eps Eps) (*OrientResult, *HPartition, error) {
	hp, err := ComputeHPartition(net, a, eps, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	ids := net.IDs()
	or, err := OrientByLevelKey(net, hp.Level, ids, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return or, hp, nil
}
