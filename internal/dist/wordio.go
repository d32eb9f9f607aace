package dist

import (
	"fmt"
	"sync"
)

// This file implements the engine's per-vertex input and output columns:
// a vertex program's inputs and outputs are a fixed number of int64 words
// per vertex (Algorithm.InputWidth/OutputWidth) in flat columns, the same
// shape the message transport of batch.go gives its messages.
//
// Contract.
//
//   - InputWidth and OutputWidth are the number of int64 words per
//     vertex, or PerPort for one word per visible port (the layout used
//     for per-port data such as parent flags or edge directions).
//     InitWords/StepWords read Node.InputWords() and write
//     Node.SetOutputWord(s)/OutputWords(); the run takes its input column
//     through RunOptions.InputWords.
//   - Input columns are CALLER-owned: the engine (and the vertex
//     program) read them during the Run only, but a program may also use
//     its own input slots as per-run scratch, so callers must not assume
//     the column is unchanged after the Run (see forest.WaitColorAlgo).
//   - Output columns are ENGINE-owned and reused: Result.OutputWords
//     aliases a column that the next Run on the same Network (or any of
//     its WithWorkers/WithProbe/WithContext views) reclaims and
//     re-zeroes. Decode or copy it before starting another run. The
//     column is zeroed at the start of each run, so vertices that never
//     set an output - and inactive vertices - read as zero words.
//   - Errors are reported through Node.Fail, which aborts the run with a
//     deterministic per-run error; the output column carries results
//     only.
//
// Layouts. For a fixed width W >= 1, vertex v owns words
// [v*W, (v+1)*W) of the column, for all n vertices (inactive slots are
// simply unused). For PerPort, the column is the concatenation, over
// ACTIVE vertices in ascending vertex order, of one word per visible
// port in port order - exactly the slot layout of the message columns,
// so its total length is the number of visible directed edges.
// ForEachVisible iterates that order for callers filling or decoding
// per-port columns.

// PerPort is the sentinel width declaring one word per visible port
// instead of a fixed per-vertex word count.
const PerPort = -1

// columnLen is the length of a column of the given width: n words per
// word of a fixed width, one word per visible port for PerPort.
func columnLen(width, n, totalPorts int) int {
	if width == PerPort {
		return totalPorts
	}
	return n * width
}

// InputWords returns the node's view of the input column: InputWidth
// words (or one word per visible port when the width is PerPort). It
// panics when the algorithm declares no input. The program may overwrite
// its own slots and use them as per-run scratch; see the package
// contract.
//
//distvet:noalloc
func (n *Node) InputWords() []int64 {
	if n.win == nil {
		panic(fmt.Sprintf("dist: node id=%d calls InputWords but the algorithm declares no input words", n.id))
	}
	return n.win
}

// OutputWords returns the node's writable view of the output column:
// OutputWidth words (or one per visible port when the width is
// PerPort), zeroed at the start of the run. It panics when the algorithm
// declares no output.
//
//distvet:noalloc
func (n *Node) OutputWords() []int64 {
	if n.wob == nil {
		panic(fmt.Sprintf("dist: node id=%d calls OutputWords but the algorithm declares no output words", n.id))
	}
	return n.wob
}

// SetOutputWord sets the node's one-word output. The declared output
// width must be exactly 1.
//
//distvet:noalloc
func (n *Node) SetOutputWord(w int64) {
	out := n.OutputWords()
	if len(out) != 1 {
		panic(fmt.Sprintf("dist: node id=%d uses SetOutputWord with %d output words", n.id, len(out)))
	}
	out[0] = w
}

// SetOutputWords copies ws into the node's output slot; len(ws) must
// equal the output width.
//
//distvet:noalloc
func (n *Node) SetOutputWords(ws ...int64) {
	out := n.OutputWords()
	if len(ws) != len(out) {
		panic(fmt.Sprintf("dist: node id=%d sets %d of %d output words", n.id, len(ws), len(out)))
	}
	copy(out, ws)
}

// Vertex returns the node's vertex index in [0, n) - the engine's
// numbering, distinct from the permutable LOCAL identifier ID(). It
// exists so vertex programs can index caller-provided arenas
// deterministically; algorithms must not base decisions on it (use ID).
func (n *Node) Vertex() int { return n.vertex }

// Fail reports a vertex-program error - bad input, exhausted palette -
// and halts the node. The run aborts at the end of the current round
// and Run returns the error of the smallest failing vertex (wrapped
// with its vertex and identifier), regardless of worker scheduling.
func (n *Node) Fail(err error) {
	if err == nil {
		panic(fmt.Sprintf("dist: node id=%d calls Fail with a nil error", n.id))
	}
	f := n.fail
	f.mu.Lock()
	if f.err == nil || n.vertex < f.vertex {
		f.vertex, f.id, f.err = n.vertex, n.id, err
	}
	f.mu.Unlock()
	n.Halt()
}

// Failf is Fail with fmt.Errorf formatting.
func (n *Node) Failf(format string, args ...any) {
	n.Fail(fmt.Errorf(format, args...))
}

// runFailure is the per-run error slot Fail records into. Workers may
// fail concurrently; the smallest vertex wins so the reported error is
// deterministic.
type runFailure struct {
	mu     sync.Mutex
	vertex int
	id     int
	err    error
}

// record is the non-Node entry into the failure slot (the panic guard's
// engine-bug fallback); the smallest-vertex-wins rule still applies.
func (f *runFailure) record(vertex, id int, err error) {
	f.mu.Lock()
	if f.err == nil || vertex < f.vertex {
		f.vertex, f.id, f.err = vertex, id, err
	}
	f.mu.Unlock()
}

func (f *runFailure) take() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		return nil
	}
	return fmt.Errorf("dist: vertex %d (id %d): %w", f.vertex, f.id, f.err)
}

// wireWordIO binds one live node's input/output column views. The widths
// and column lengths were validated by newSimulation, which calls this
// from the parallel setup sweep; the slot base comes from the cached
// topology.
//
//distvet:noalloc
func wireWordIO(nd *Node, s *simulation, iw, ow int, inCol []int64, v int) {
	deg := len(nd.ports)
	switch iw {
	case 0:
		// no input plane
	case PerPort:
		if deg == 0 {
			// A canonical non-nil empty view: degree-0 vertices have
			// no slots, but InputWords must still work for them.
			nd.win = emptyWords
		} else {
			b := s.topo.base[v]
			nd.win = inCol[b : b+deg : b+deg]
		}
	default:
		o := v * iw
		nd.win = inCol[o : o+iw : o+iw]
	}
	switch ow {
	case 0:
		// no output plane
	case PerPort:
		if deg == 0 {
			nd.wob = emptyWords
		} else {
			b := s.topo.base[v]
			nd.wob = s.outCol[b : b+deg : b+deg]
		}
	default:
		o := v * ow
		nd.wob = s.outCol[o : o+ow : o+ow]
	}
}

// emptyWords is the shared non-nil zero-length column view of degree-0
// vertices under PerPort widths (and of empty input columns).
var emptyWords = make([]int64, 0)
