package dist

import "fmt"

// This file implements the engine's message transport: every message is
// a fixed number of int64 words (Algorithm.MessageWords), exchanged
// through two process-wide word columns (one per round parity) indexed by
// the engine's port tables.
//
// Layout. Every active vertex v owns the contiguous slot range
// [base[v], base[v]+deg(v)) of the columnar port space, one slot per
// visible port, deg summed over the label/active-filtered subgraph. A
// round-parity column holds W = MessageWords() int64 words per slot plus
// one sent flag per slot. Sending writes the node's own slots; delivery
// reads the neighbor's slot for the previous parity through the
// precomputed inSlots table (the columnar analogue of a peer table), so
// a round performs no per-message allocation and no pointer chasing
// beyond one column descriptor and its two flat arrays.

// wordColumn is one round parity's message column: W words per slot
// plus one sent flag per slot. newSimulation builds the two parities'
// descriptors once per run; the slices never change during the run
// (restore copies into them), so every inbox of a round can point at
// the same read-only descriptor.
type wordColumn struct {
	width int
	words []int64
	sent  []uint8
}

// WordInbox is a node's inbox: a view of the previous round's word
// column restricted to the node's visible ports. Port p of the inbox is
// the neighbor on the node's visible port p.
//
// The view is four words: a pointer to the previous parity's column
// descriptor plus the node's slot table. The amd64 register ABI passes
// nine integer arguments; the *Node takes one and a program receiver at
// most four (distvet's wordio rule), so StepWords receives all of its
// arguments in registers. An inbox carrying the column slices itself
// would be ten words and spill to the stack on every per-vertex call.
type WordInbox struct {
	col   *wordColumn
	slots []int32 // per-port slot of the sending neighbor
}

// Ports returns the number of visible ports (the node's degree).
func (in WordInbox) Ports() int { return len(in.slots) }

// Has reports whether the neighbor on port p sent a message last round.
func (in WordInbox) Has(p int) bool { return in.col.sent[in.slots[p]] != 0 }

// Word returns the first word of port p's message. Meaningful only when
// Has(p); the value is unspecified otherwise.
func (in WordInbox) Word(p int) int64 { return in.col.words[int(in.slots[p])*in.col.width] }

// Words returns the full W-word message on port p as a view into the
// engine's column. The slice is valid only during the current StepWords
// call and must not be retained or written.
func (in WordInbox) Words(p int) []int64 {
	w := in.col.width
	s := int(in.slots[p]) * w
	return in.col.words[s : s+w : s+w]
}

// SendWords marks the given visible port as sending this round and
// returns its W-word outbox slot, zeroed at the first mark of the round;
// the caller fills in the words. Subsequent calls in the same round
// return the same slot (sending again on a port overwrites).
//
//distvet:noalloc
func (n *Node) SendWords(port int) []int64 {
	if port < 0 || port >= len(n.ports) {
		panic(fmt.Sprintf("dist: node id=%d sends on port %d of %d", n.id, port, len(n.ports)))
	}
	s := port * n.width
	out := n.wout[s : s+n.width : s+n.width]
	if n.wmark[port] == 0 {
		n.wmark[port] = 1
		n.sent++
		for i := range out {
			out[i] = 0
		}
	}
	return out
}

// SendWord sends the one-word message w on the given visible port. The
// algorithm's width must be 1 (use SendWords for wider messages).
//
//distvet:noalloc
func (n *Node) SendWord(port int, w int64) {
	if n.width != 1 {
		panic(fmt.Sprintf("dist: node id=%d uses SendWord with %d-word messages", n.id, n.width))
	}
	if port < 0 || port >= len(n.ports) {
		panic(fmt.Sprintf("dist: node id=%d sends on port %d of %d", n.id, port, len(n.ports)))
	}
	if n.wmark[port] == 0 {
		n.wmark[port] = 1
		n.sent++
	}
	n.wout[port] = w
}

// SendAllWord sends the one-word message w on every visible port.
//
//distvet:noalloc
func (n *Node) SendAllWord(w int64) {
	for p := range n.ports {
		n.SendWord(p, w)
	}
}

// flushHaltClears zeroes the sent flags of nodes that halted in the
// previous round, in both parities. It runs between rounds, after the
// halting sends have been delivered: a halted node no longer steps, so
// nothing else clears the stale flags its final rounds left behind.
//
//distvet:noalloc
func (s *simulation) flushHaltClears() {
	for _, v := range s.clearQ {
		b := s.topo.base[v]
		deg := len(s.topo.ports[v])
		clear(s.cols[0].sent[b : b+deg])
		clear(s.cols[1].sent[b : b+deg])
	}
	s.clearQ = s.clearQ[:0]
}
