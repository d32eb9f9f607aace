package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file implements checkpoint/resume for the round-structured engine
// state. The engine's state between two rounds is, by construction,
// exactly the current-parity message columns plus the live set and a
// handful of counters: the engine is RNG-free, inputs and outputs live in
// flat columns, and the flag-hygiene
// invariant means the OTHER parity's content is dead (its flags are
// about to be overwritten or were flushed). A Snapshot captures that
// state - copied, never aliased - so a run aborted at a round boundary
// (RunOptions.SnapshotOnAbort) can be serialized, the process killed,
// and the run resumed bit-for-bit on a fresh Network.
//
// Contract: snapshots cover runs whose per-node state lives ENTIRELY in
// the word columns (input/output/message words) - Node.State must stay
// nil. The capture verifies this and refuses otherwise; programs that keep
// algorithm-side arenas (e.g. reduce.Algo) are not snapshotable
// mid-run, while column-state programs (e.g. forest.WaitColorAlgo) are
// by design. Every network view, sharded or not, runs on the same global
// slot layout, so a snapshot taken at one shard count resumes at any
// other.

// snapMagic/snapVersion frame the serialized form. The version bumps on
// any layout change; ReadSnapshot rejects unknown versions.
const snapMagic = "DSN1"

const snapVersion = 1

// maxSnapWidth bounds the per-message word count a snapshot header may
// declare (far above any real program; a hostile header cannot multiply
// totalPorts into an overflowing allocation).
const maxSnapWidth = 1 << 16

// Snapshot is the captured engine state of a run at a round boundary. It owns all of its memory: nothing aliases the
// session's pooled columns or the caller's input column, so it remains
// valid across later runs and process boundaries (WriteTo/ReadSnapshot).
type Snapshot struct {
	// Dimensions, used to validate a Resume against the target run.
	n          int
	totalPorts int
	width      int
	iw, ow     int

	// round is the last completed round; Resume continues at round+1.
	round int
	// live is the live set entering round round+1 (ascending vertices).
	live []int
	// clearQ lists the nodes that halted during round `round`: their
	// final sends sit in the current-parity column (delivered at
	// round+1) and their flags are flushed right after - dropping this
	// queue would leave stale flags that misdeliver two rounds later.
	clearQ []int
	// sent holds every vertex's cumulative send counter (index = vertex;
	// zero for inactive vertices), so resumed Results report the same
	// absolute message totals.
	sent []int64
	// words/flags are the current-parity (round%2) message column and
	// sent flags in the global slot layout.
	words []int64
	flags []uint8
	// inWords/outWords are the input and output column contents
	// (programs may use input slots as scratch, so the live contents -
	// not the caller's originals - are what resumes need).
	inWords  []int64
	outWords []int64
}

// Round returns the last completed round; a Resume continues at Round+1.
func (sn *Snapshot) Round() int { return sn.round }

// captureSnapshot copies the engine state after completed round `rounds`
// into an owned Snapshot. Called at a round boundary (abortResult) while
// the pooled columns are still bound.
func (s *simulation) captureSnapshot(rounds int) (*Snapshot, error) {
	// Verify the column-state contract: a program that stashed anything
	// in Node.State cannot be rebuilt from columns alone.
	for v, st := range s.states {
		if st != nil {
			return nil, fmt.Errorf("dist: snapshot requires column-only state, but vertex %d holds Node.State", v)
		}
	}
	n := s.net.g.N()
	tp := s.topo.totalPorts
	sn := &Snapshot{
		n:          n,
		totalPorts: tp,
		width:      s.width,
		iw:         s.algo.InputWidth(),
		ow:         s.algo.OutputWidth(),
		round:      rounds,
		live:       append([]int(nil), s.live...),
		clearQ:     append([]int(nil), s.clearQ...),
		sent:       append([]int64(nil), s.sent...),
		words:      make([]int64, tp*s.width),
		flags:      make([]uint8, tp),
		inWords:    append([]int64(nil), s.opts.InputWords...),
		outWords:   append([]int64(nil), s.outCol...),
	}
	par := rounds % 2
	copy(sn.words, s.cols[par].words[:tp*s.width])
	copy(sn.flags, s.cols[par].sent[:tp])
	return sn, nil
}

// Resume continues a snapshotted run on this network: the same graph,
// identifier assignment, filters and algorithm shape as the captured
// run (validated against the snapshot's dimensions), with the round loop
// entering at snapshot round+1. The resumed run is bit-for-bit identical
// to the uninterrupted one: same outputs, same absolute Rounds and
// Messages. opts.InputWords must be a column of the captured length; its
// contents are overwritten with the snapshot's (programs use input slots
// as scratch, so the snapshot's copy is authoritative). The shard count
// of this network view need not match the captured run's. Absolute counts
// mean a phase view (WithPhase) that was charged the aborted leg counts
// that leg again when the resume runs on it too.
func (net *Network) Resume(algo Algorithm, opts RunOptions, sn *Snapshot) (*Result, error) {
	if sn == nil {
		return nil, errors.New("dist: nil snapshot")
	}
	s, err := net.prepare(algo, opts)
	if err != nil {
		return nil, err
	}
	if err := s.restore(sn); err != nil {
		s.close()
		return nil, err
	}
	return s.run()
}

// restore overlays the snapshot onto a freshly prepared simulation.
func (s *simulation) restore(sn *Snapshot) error {
	if n := s.net.g.N(); n != sn.n {
		return fmt.Errorf("dist: snapshot of %d vertices resumed on %d", sn.n, n)
	}
	if tp := s.topo.totalPorts; tp != sn.totalPorts {
		return fmt.Errorf("dist: snapshot of %d delivery slots resumed on a topology with %d (different graph or filters)", sn.totalPorts, tp)
	}
	if s.width != sn.width || s.algo.InputWidth() != sn.iw || s.algo.OutputWidth() != sn.ow {
		return fmt.Errorf("dist: snapshot widths (W=%d, in=%d, out=%d) do not match algorithm %T (W=%d, in=%d, out=%d)",
			sn.width, sn.iw, sn.ow, s.algo, s.width, s.algo.InputWidth(), s.algo.OutputWidth())
	}
	if len(sn.inWords) != len(s.opts.InputWords) {
		return fmt.Errorf("dist: snapshot carries %d input words, options carry %d", len(sn.inWords), len(s.opts.InputWords))
	}
	for _, v := range sn.live {
		if v < 0 || v >= sn.n || s.topo.ports[v] == nil {
			return fmt.Errorf("dist: snapshot live vertex %d is not active here", v)
		}
	}
	for _, v := range sn.clearQ {
		if v < 0 || v >= sn.n || s.topo.ports[v] == nil {
			return fmt.Errorf("dist: snapshot clear-queue vertex %d is not active here", v)
		}
	}
	s.startRound = sn.round
	s.resumed = true
	s.live = s.live[:len(sn.live)]
	copy(s.live, sn.live)
	s.clearQ = append(s.clearQ[:0], sn.clearQ...)
	for _, v := range s.topo.live {
		s.sent[v] = sn.sent[v]
	}
	// The spent parity's flags hold pooled junk from earlier runs and are
	// bulk-zeroed: round round+1 writes it fresh, but flushHaltClears and
	// late-halting readers must find zeros, as they would in the
	// uninterrupted run.
	par := sn.round % 2
	copy(s.cols[par].words, sn.words)
	copy(s.cols[par].sent, sn.flags)
	clear(s.cols[1-par].sent)
	copy(s.opts.InputWords, sn.inWords)
	copy(s.outCol, sn.outWords)
	return nil
}

// WriteTo serializes the snapshot in the versioned DSN1 binary framing:
// a fixed header (magic, version, dimensions, round, section lengths)
// followed by the little-endian sections in order (live, clearQ, sent,
// flags, words, inWords, outWords). The format is self-contained and
// platform-independent.
func (sn *Snapshot) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	put := func(p []byte) error {
		k, err := bw.Write(p)
		n += int64(k)
		return err
	}
	var hdr [84]byte
	copy(hdr[0:4], snapMagic)
	le := binary.LittleEndian
	le.PutUint32(hdr[4:8], snapVersion)
	le.PutUint64(hdr[8:16], uint64(sn.n))
	le.PutUint64(hdr[16:24], uint64(sn.totalPorts))
	le.PutUint64(hdr[24:32], uint64(sn.width))
	le.PutUint64(hdr[32:40], uint64(int64(sn.iw)))
	le.PutUint64(hdr[40:48], uint64(int64(sn.ow)))
	le.PutUint64(hdr[48:56], uint64(sn.round))
	le.PutUint64(hdr[56:64], uint64(len(sn.live)))
	le.PutUint64(hdr[64:72], uint64(len(sn.clearQ)))
	le.PutUint64(hdr[72:80], uint64(len(sn.inWords)))
	le.PutUint32(hdr[80:84], uint32(len(sn.outWords)))
	if err := put(hdr[:]); err != nil {
		return n, err
	}
	var buf [8]byte
	for _, v := range sn.live {
		le.PutUint32(buf[:4], uint32(v))
		if err := put(buf[:4]); err != nil {
			return n, err
		}
	}
	for _, v := range sn.clearQ {
		le.PutUint32(buf[:4], uint32(v))
		if err := put(buf[:4]); err != nil {
			return n, err
		}
	}
	for _, x := range sn.sent {
		le.PutUint64(buf[:], uint64(x))
		if err := put(buf[:]); err != nil {
			return n, err
		}
	}
	if err := put(sn.flags); err != nil {
		return n, err
	}
	for _, col := range [][]int64{sn.words, sn.inWords, sn.outWords} {
		for _, x := range col {
			le.PutUint64(buf[:], uint64(x))
			if err := put(buf[:]); err != nil {
				return n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	return n, nil
}

// ReadSnapshot parses a DSN1 snapshot. Any truncation or corruption -
// bad magic, unknown version, inconsistent section lengths, short
// payload, trailing bytes - is an error, never a partial snapshot. Large
// sections are read with chunked growth so a hostile header cannot force
// allocations beyond the bytes actually present.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [84]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("dist: snapshot header: %w", err)
	}
	if string(hdr[0:4]) != snapMagic {
		return nil, fmt.Errorf("dist: bad magic %q (not a %s snapshot)", hdr[0:4], snapMagic)
	}
	le := binary.LittleEndian
	if v := le.Uint32(hdr[4:8]); v != snapVersion {
		return nil, fmt.Errorf("dist: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	sn := &Snapshot{
		n:          int(le.Uint64(hdr[8:16])),
		totalPorts: int(le.Uint64(hdr[16:24])),
		width:      int(le.Uint64(hdr[24:32])),
		iw:         int(int64(le.Uint64(hdr[32:40]))),
		ow:         int(int64(le.Uint64(hdr[40:48]))),
		round:      int(le.Uint64(hdr[48:56])),
	}
	nLive := int(le.Uint64(hdr[56:64]))
	nClear := int(le.Uint64(hdr[64:72]))
	nIn := int(le.Uint64(hdr[72:80]))
	nOut := int(le.Uint32(hdr[80:84]))
	switch {
	case sn.n < 0 || sn.n >= maxSlots:
		return nil, fmt.Errorf("dist: snapshot declares %d vertices", sn.n)
	case sn.totalPorts < 0 || sn.totalPorts >= maxSlots:
		return nil, fmt.Errorf("dist: snapshot declares %d delivery slots", sn.totalPorts)
	case sn.width < 1 || sn.width > maxSnapWidth:
		return nil, fmt.Errorf("dist: snapshot declares %d message words", sn.width)
	case sn.iw < PerPort || sn.ow < PerPort:
		return nil, fmt.Errorf("dist: snapshot declares I/O widths (%d, %d)", sn.iw, sn.ow)
	case sn.round < 0 || sn.round > defaultMaxRounds:
		return nil, fmt.Errorf("dist: snapshot declares round %d", sn.round)
	case nLive < 0 || nLive > sn.n:
		return nil, fmt.Errorf("dist: snapshot declares %d live of %d vertices", nLive, sn.n)
	case nClear < 0 || nClear > sn.n:
		return nil, fmt.Errorf("dist: snapshot declares %d clear-queue entries of %d vertices", nClear, sn.n)
	case nIn < 0 || nIn >= maxSlots || nOut < 0 || nOut >= maxSlots:
		return nil, fmt.Errorf("dist: snapshot declares (%d, %d) I/O words", nIn, nOut)
	}
	var err error
	if sn.live, err = readVertexSec(br, nLive, sn.n, "live"); err != nil {
		return nil, err
	}
	if sn.clearQ, err = readVertexSec(br, nClear, sn.n, "clearQ"); err != nil {
		return nil, err
	}
	if sn.sent, err = readWordSec(br, sn.n, "sent"); err != nil {
		return nil, err
	}
	sn.flags, err = readFlagSec(br, sn.totalPorts)
	if err != nil {
		return nil, err
	}
	if sn.words, err = readWordSec(br, sn.totalPorts*sn.width, "words"); err != nil {
		return nil, err
	}
	if sn.inWords, err = readWordSec(br, nIn, "inWords"); err != nil {
		return nil, err
	}
	if sn.outWords, err = readWordSec(br, nOut, "outWords"); err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, errors.New("dist: trailing data after snapshot")
	}
	return sn, nil
}

// snapChunk bounds the per-step allocation of the chunk-grown section
// readers: a hostile header declaring a huge section only costs memory
// proportional to the bytes actually present in the stream.
const snapChunk = 1 << 16

// readVertexSec reads a vertex-list section (uint32 entries, validated
// against n) with chunked growth.
func readVertexSec(br *bufio.Reader, count, n int, sec string) ([]int, error) {
	out := make([]int, 0, min(count, snapChunk))
	var buf [4]byte
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("dist: snapshot %s section: %w", sec, err)
		}
		v := int(binary.LittleEndian.Uint32(buf[:]))
		if v >= n {
			return nil, fmt.Errorf("dist: snapshot %s section: vertex %d out of range [0,%d)", sec, v, n)
		}
		out = append(out, v)
	}
	return out, nil
}

// readWordSec reads an int64 column section with chunked growth.
func readWordSec(br *bufio.Reader, count int, sec string) ([]int64, error) {
	out := make([]int64, 0, min(count, snapChunk))
	var buf [8]byte
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("dist: snapshot %s section: %w", sec, err)
		}
		out = append(out, int64(binary.LittleEndian.Uint64(buf[:])))
	}
	return out, nil
}

// readFlagSec reads the sent-flag section with chunked growth.
func readFlagSec(br *bufio.Reader, count int) ([]uint8, error) {
	out := make([]uint8, 0, min(count, snapChunk))
	for len(out) < count {
		k := min(count-len(out), snapChunk)
		start := len(out)
		out = append(out, make([]uint8, k)...)
		if _, err := io.ReadFull(br, out[start:]); err != nil {
			return nil, fmt.Errorf("dist: snapshot flags section: %w", err)
		}
	}
	return out, nil
}
