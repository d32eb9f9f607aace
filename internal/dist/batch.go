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
// beyond two flat arrays.

// WordInbox is a node's inbox: a by-value view of the previous round's
// word column restricted to the node's visible ports. Port p of the inbox
// is the neighbor on the node's visible port p.
type WordInbox struct {
	width int
	words []int64 // previous parity's full word column
	sent  []uint8 // previous parity's sent flags, one per slot
	slots []int32 // per-port slot of the sending neighbor
	// Sharded delivery (shard.go; both stay zero on flat runs): slots
	// then hold SHARD-LOCAL indices, shard points at the previous
	// parity's per-shard column set (one simulation-owned instance per
	// parity), and inBase positions the node's ports in the boundary
	// table: shard.inShard[inBase+p] names the shard sending on port p.
	// Bundling the sharded state behind one pointer keeps the by-value
	// inbox copy every StepWords call receives at five words.
	shard  *shardCols
	inBase int32
}

// shardCols is one round parity's per-shard delivery state: the
// per-shard word/flag column segments plus the full boundary table.
// The simulation owns two instances (one per parity), bound at column
// setup; WordInbox carries a pointer to the previous parity's instance
// instead of three inline slice headers.
type shardCols struct {
	inShard []uint8
	wordsBy [][]int64
	sentBy  [][]uint8
}

// Ports returns the number of visible ports (the node's degree).
func (in WordInbox) Ports() int { return len(in.slots) }

// Has reports whether the neighbor on port p sent a message last round.
func (in WordInbox) Has(p int) bool {
	if in.shard == nil {
		return in.sent[in.slots[p]] != 0
	}
	return in.shard.sentBy[in.shard.inShard[int(in.inBase)+p]][in.slots[p]] != 0
}

// Word returns the first word of port p's message. Meaningful only when
// Has(p); the value is unspecified otherwise.
func (in WordInbox) Word(p int) int64 {
	if in.shard == nil {
		return in.words[int(in.slots[p])*in.width]
	}
	return in.shard.wordsBy[in.shard.inShard[int(in.inBase)+p]][int(in.slots[p])*in.width]
}

// Words returns the full W-word message on port p as a view into the
// engine's column. The slice is valid only during the current StepWords
// call and must not be retained or written.
func (in WordInbox) Words(p int) []int64 {
	s := int(in.slots[p]) * in.width
	if in.shard == nil {
		return in.words[s : s+in.width : s+in.width]
	}
	col := in.shard.wordsBy[in.shard.inShard[int(in.inBase)+p]]
	return col[s : s+in.width : s+in.width]
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
	if st := s.topo.shard; st != nil {
		s.flushHaltClearsSharded(st)
		return
	}
	for _, v := range s.clearQ {
		b := s.topo.base[v]
		deg := len(s.nodes[v].ports)
		clear(s.wsent[0][b : b+deg])
		clear(s.wsent[1][b : b+deg])
	}
	s.clearQ = s.clearQ[:0]
}
