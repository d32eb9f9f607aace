package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
)

// This file implements the shard-structured data plane: a Network view
// created with Sharded partitions the vertex space into the contiguous
// ranges of a graph.Sharding, and the engine then keeps topology slots
// and message columns shard-local. Each shard owns the column
// segment of its own vertices' outgoing slots, so a worker sweeping one
// shard's vertices writes only that shard's cache lines; cross-shard
// delivery goes through the boundary table (shardTopo.inShard), which
// names, per delivery slot, the shard whose column holds the message.
//
// Results are bit-for-bit identical to the flat engine at every shard
// count: sharding changes only WHERE a message word lives (which column
// segment), never which value is delivered to which port in which round,
// and the live-list worker chunking is untouched. Tests pin the
// equivalence exactly as the worker-count tests do.

// shardTopo is the per-topology shard structure of a sharded session.
// Like the rest of the topology it is immutable after construction.
type shardTopo struct {
	// sh is the vertex partition (NumShards >= 2 here; flat layouts
	// never build a shardTopo).
	sh graph.Sharding
	// vshard[v] is the shard owning vertex v. It aliases the session's
	// table: the partition is a property of the network view, not of the
	// (labels, active) filter.
	vshard []uint8
	// slotCuts[k] is the global columnar slot where shard k's range
	// begins; slotCuts[K] == totalPorts. Shard k's message column covers
	// exactly the slots [slotCuts[k], slotCuts[k+1]) of the flat layout,
	// so global slot = shard-local slot + slotCuts[shard].
	slotCuts []int
	// inShard is the boundary table: inShard[base[v]+p] is the shard of
	// the neighbor writing v's port-p message, i.e. the shard whose
	// column topology.inSlots[base[v]+p] (shard-local there) indexes.
	// Within-shard edges and cross-shard edges use the same two reads;
	// "boundary" refers to what the table encodes, not a special path.
	inShard []uint8
}

// k returns the shard count.
func (st *shardTopo) k() int { return len(st.slotCuts) - 1 }

// segLen returns the slot count of shard k's column segment.
func (st *shardTopo) segLen(k int) int { return st.slotCuts[k+1] - st.slotCuts[k] }

// attachShardTopo computes the shard structure of a freshly built
// topology on a sharded session (no-op on flat sessions). It runs after
// the port lists and bases are final and before fillSlots, which fills
// the boundary table alongside the shard-local slot values.
func (sc *session) attachShardTopo(t *topology) {
	k := sc.sh.NumShards()
	if k <= 1 {
		return
	}
	st := &shardTopo{sh: sc.sh, vshard: sc.vshard, slotCuts: make([]int, k+1)}
	// Slot cuts are degree prefix sums over the vertex partition. base[]
	// cannot serve here: filtered topologies leave inactive vertices'
	// bases at zero, so the cut must re-walk the visible degrees.
	cut := 0
	for j := 0; j < k; j++ {
		st.slotCuts[j] = cut
		lo, hi := sc.sh.Bounds(j)
		for v := lo; v < hi; v++ {
			cut += len(t.ports[v])
		}
	}
	st.slotCuts[k] = cut // == t.totalPorts
	st.inShard = make([]uint8, t.totalPorts)
	t.shard = st
}

// Sharded returns a view of the network running the shard-structured
// engine over the given vertex partition. The view shares the graph and
// identifier assignment but gets a FRESH session: cached topologies and
// pooled columns are laid out per shard structure, so a session never
// mixes layouts. A zero-value or single-shard Sharding yields the flat
// engine (itself a fresh session, so shard sweeps get cold caches at
// every point including k=1). Runs on the view produce bit-for-bit the
// results of the flat engine.
func (net *Network) Sharded(sh graph.Sharding) (*Network, error) {
	if k := sh.NumShards(); k > 0 && sh.N() != net.g.N() {
		return nil, fmt.Errorf("dist: sharding partitions %d vertices, graph has %d", sh.N(), net.g.N())
	}
	c := *net
	c.sharding = sh
	c.sess = &session{}
	if sh.NumShards() > 1 {
		vshard := make([]uint8, net.g.N())
		for k := 0; k < sh.NumShards(); k++ {
			lo, hi := sh.Bounds(k)
			for v := lo; v < hi; v++ {
				vshard[v] = uint8(k)
			}
		}
		c.sess.sh = sh
		c.sess.vshard = vshard
	}
	return &c, nil
}

// NewNetworkSharded is NewNetwork followed by Sharded.
func NewNetworkSharded(g *graph.Graph, sh graph.Sharding) (*Network, error) {
	return NewNetwork(g).Sharded(sh)
}

// Sharding returns the vertex partition this view was created with (the
// zero value on flat networks).
func (net *Network) Sharding() graph.Sharding { return net.sharding }

// Shards returns the effective shard count of this view's engine: the
// partition's count, or 1 on flat (and single-shard) views.
func (net *Network) Shards() int {
	if k := net.sharding.NumShards(); k > 1 {
		return k
	}
	return 1
}

// growShardColumns sizes the per-shard round-parity message columns of a
// sharded run from the pooled scratch. Like the flat columns the
// segments are NOT zeroed between runs; the flag-hygiene argument of
// newSimulation carries over per segment, because a shard-local slot
// belongs to exactly one sender of the current topology and that sender
// clears its own flags when it steps (or flushHaltClears does).
func (s *simulation) growShardColumns(rs *runScratch, st *shardTopo, width int) {
	k := st.k()
	for i := 0; i < 2; i++ {
		rs.wshardWords[i] = growSlices(rs.wshardWords[i], k)
		rs.wshardSent[i] = growSlices(rs.wshardSent[i], k)
		for j := 0; j < k; j++ {
			seg := st.segLen(j)
			rs.wshardWords[i][j] = grown(rs.wshardWords[i][j], seg*width)
			rs.wshardSent[i][j] = grown(rs.wshardSent[i][j], seg)
		}
		s.shWords[i], s.shSent[i] = rs.wshardWords[i], rs.wshardSent[i]
		s.shIn[i] = shardCols{inShard: st.inShard, wordsBy: s.shWords[i], sentBy: s.shSent[i]}
	}
}

// growSlices resizes an outer slice-of-slices to length k, preserving
// the inner slices (whose pooled capacity is the point) on reallocation.
func growSlices[T any](s [][]T, k int) [][]T {
	if cap(s) >= k {
		return s[:k]
	}
	t := make([][]T, k)
	copy(t, s[:cap(s)])
	return t
}

// stepSliceSharded is stepSlice against shard-local columns:
// the node's outbox binds into its own shard's current-parity segment,
// and the inbox view carries the previous parity's per-shard columns
// plus the boundary table so delivery resolves cross-shard slots with
// one extra byte read. The flat path keeps its own loop untouched.
//
//distvet:noalloc
func (s *simulation) stepSliceSharded(r, lo, hi int, cur *int) {
	w := s.width
	par := r % 2
	st := s.topo.shard
	base := s.topo.base
	vshard := st.vshard
	cuts := st.slotCuts
	words := s.shWords[par]
	sent := s.shSent[par]
	in := WordInbox{width: w, shard: &s.shIn[1-par]}
	for i := lo; i < hi; i++ {
		*cur = i
		v := s.live[i]
		nd := s.nodes[v]
		nd.round = r
		k := vshard[v]
		gb := base[v]
		b := gb - cuts[k]
		deg := len(nd.ports)
		col := words[k]
		nd.wout = col[b*w : (b+deg)*w : (b+deg)*w]
		nd.wmark = sent[k][b : b+deg : b+deg]
		clear(nd.wmark)
		if r == 0 {
			s.algo.InitWords(nd)
			continue
		}
		in.slots = s.topo.slots(v)
		in.inBase = int32(gb)
		s.algo.StepWords(nd, in)
	}
}

// flushHaltClearsSharded is flushHaltClears against shard-local columns.
//
//distvet:noalloc
func (s *simulation) flushHaltClearsSharded(st *shardTopo) {
	for _, v := range s.clearQ {
		k := st.vshard[v]
		b := s.topo.base[v] - st.slotCuts[k]
		deg := len(s.nodes[v].ports)
		clear(s.shSent[0][k][b : b+deg])
		clear(s.shSent[1][k][b : b+deg])
	}
	s.clearQ = s.clearQ[:0]
}

// liveShardSegs writes the shard segmentation of the (ascending) live
// list into segs: shard j's live nodes are live[segs[j]:segs[j+1]].
func (s *simulation) liveShardSegs(st *shardTopo, segs []int) {
	live := s.live
	segs[0] = 0
	for j := 1; j <= st.k(); j++ {
		_, hi := st.sh.Bounds(j - 1)
		segs[j] = segs[j-1] + sort.SearchInts(live[segs[j-1]:], hi)
	}
}

// stepRoundShardTimed is the probed step of a sharded round: shard-
// aligned timing, one measurement per nonempty shard segment (the
// ISSUE's per-shard chunk wall). Only wall fields - documented as
// non-deterministic - depend on this chunking; stepSlice is safe under
// any partition of the live list, so results are unchanged.
//
//distvet:wallclock per-shard step timing is this function's purpose; only non-deterministic wall telemetry depends on it
func (s *simulation) stepRoundShardTimed(r int, st *shardTopo, segs []int, ns []int64) (workers int, maxNS, meanNS int64) {
	m := len(s.live)
	w := s.sweepWorkers(m)
	k := st.k()
	s.rs.curV = grown(s.rs.curV, k)
	cur := s.rs.curV
	if w <= 1 {
		for j := 0; j < k; j++ {
			lo, hi := segs[j], segs[j+1]
			if lo == hi {
				ns[j] = 0
				continue
			}
			t := time.Now()
			s.stepSliceGuarded(r, lo, hi, &cur[j])
			ns[j] = time.Since(t).Nanoseconds()
		}
		workers = 1
	} else {
		var wg sync.WaitGroup
		for j := 0; j < k; j++ {
			lo, hi := segs[j], segs[j+1]
			if lo == hi {
				ns[j] = 0
				continue
			}
			wg.Add(1)
			go func(j, lo, hi int) {
				defer wg.Done()
				t := time.Now()
				s.stepSliceGuarded(r, lo, hi, &cur[j])
				ns[j] = time.Since(t).Nanoseconds()
			}(j, lo, hi)
		}
		wg.Wait()
		workers = w
	}
	var sum int64
	nonempty := 0
	for j := 0; j < k; j++ {
		if segs[j] == segs[j+1] {
			continue
		}
		nonempty++
		if ns[j] > maxNS {
			maxNS = ns[j]
		}
		sum += ns[j]
	}
	if nonempty > 0 {
		meanNS = sum / int64(nonempty)
	}
	return workers, maxNS, meanNS
}

// sentTotalShards is sentTotal with per-shard subtotals: out[j] receives
// the cumulative sends of shard j's vertices, and the global total is
// returned. Probed sharded rounds diff successive calls for the
// per-shard message counts.
func (s *simulation) sentTotalShards(st *shardTopo, out []int64) int64 {
	var total int64
	for j := 0; j < st.k(); j++ {
		lo, hi := st.sh.Bounds(j)
		var t int64
		for v := lo; v < hi; v++ {
			if nd := s.nodes[v]; nd != nil {
				t += nd.sent
			}
		}
		out[j] = t
		total += t
	}
	return total
}
