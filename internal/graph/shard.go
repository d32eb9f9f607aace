package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// Vertex sharding: a partition of [0, n) into contiguous ranges, the unit
// in which ReadBinaryShards materializes CSR storage and in which sharded
// engine views (internal/dist) report per-shard telemetry. Contiguity is
// load-bearing for both: the streaming loader fills each shard's backing
// array with plain appends because adjacency entries of one shard never
// interleave with another's allocation, and a shard's live vertices form
// one segment of the engine's ascending live list.

// MaxShards is the largest supported shard count, an API limit shared by
// the loaders, the engine views and the harnesses.
const MaxShards = 256

// Sharding partitions the vertices [0, n) into NumShards contiguous
// ranges. The zero value has no shards and means "unsharded"; consumers
// treat it as one flat range.
type Sharding struct {
	// cuts[k] is the first vertex of shard k; cuts[NumShards] == n.
	cuts []int
}

// NewSharding returns the balanced sharding of n vertices into k
// contiguous ranges: shard i is [i*n/k, (i+1)*n/k), so range sizes differ
// by at most one. k may exceed n (trailing shards are empty).
func NewSharding(n, k int) (Sharding, error) {
	if n < 0 {
		return Sharding{}, fmt.Errorf("graph: sharding %d vertices", n)
	}
	if k < 1 || k > MaxShards {
		return Sharding{}, fmt.Errorf("graph: shard count %d outside [1, %d]", k, MaxShards)
	}
	cuts := make([]int, k+1)
	for i := 0; i <= k; i++ {
		cuts[i] = i * n / k
	}
	return Sharding{cuts: cuts}, nil
}

// autoShardTarget is the vertex count AutoSharding aims to put in one
// shard: large enough that per-shard overheads vanish, small enough that
// a shard's message columns stay cache- and RSS-friendly.
const autoShardTarget = 1 << 18

// AutoSharding returns the deterministic default sharding for n vertices:
// balanced shards of about autoShardTarget vertices, at least 1 and at
// most MaxShards. It depends only on n, so every loader and harness that
// says "auto" agrees on the layout.
func AutoSharding(n int) Sharding {
	if n < 0 {
		n = 0
	}
	k := (n + autoShardTarget - 1) / autoShardTarget
	if k < 1 {
		k = 1
	}
	if k > MaxShards {
		k = MaxShards
	}
	s, err := NewSharding(n, k)
	if err != nil { // unreachable: k is in range by construction
		panic(err)
	}
	return s
}

// NumShards returns the number of shards (0 for the zero value).
func (s Sharding) NumShards() int {
	if len(s.cuts) == 0 {
		return 0
	}
	return len(s.cuts) - 1
}

// N returns the number of vertices partitioned (0 for the zero value).
func (s Sharding) N() int {
	if len(s.cuts) == 0 {
		return 0
	}
	return s.cuts[len(s.cuts)-1]
}

// Bounds returns shard k's vertex range [lo, hi).
func (s Sharding) Bounds(k int) (lo, hi int) { return s.cuts[k], s.cuts[k+1] }

// Len returns the number of vertices in shard k.
func (s Sharding) Len(k int) int { return s.cuts[k+1] - s.cuts[k] }

// ShardOf returns the shard owning vertex v.
func (s Sharding) ShardOf(v int) int {
	// The first cut strictly past v, minus one range start.
	return sort.SearchInts(s.cuts, v+1) - 1
}

// BinStat is the DCG1 header of a binary graph file: the declared sizes
// and the on-disk shard layout, readable without loading the graph.
type BinStat struct {
	N         int // vertex count
	M         int // edge count
	ShardSize int // edges per on-disk shard
	Shards    int // ceil(M / ShardSize); 0 when M == 0
}

// StatBinary reads and validates a DCG1 header from r without loading any
// edges. It performs the same header checks as ReadBinary, so a non-error
// result means the sizes are plausible (the edge payload is not checked).
func StatBinary(r io.Reader) (BinStat, error) {
	var hdr [28]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return BinStat{}, fmt.Errorf("graph: binary header: %w", err)
	}
	n64, m64, shard, err := parseBinHeader(hdr)
	if err != nil {
		return BinStat{}, err
	}
	st := BinStat{N: int(n64), M: int(m64), ShardSize: int(shard)}
	if st.M > 0 {
		st.Shards = (st.M + st.ShardSize - 1) / st.ShardSize
	}
	return st, nil
}

// StatBinaryFile reads the DCG1 header of the file at path.
func StatBinaryFile(path string) (BinStat, error) {
	f, err := os.Open(path)
	if err != nil {
		return BinStat{}, err
	}
	defer f.Close()
	st, err := StatBinary(f)
	if err != nil {
		return BinStat{}, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// parseBinHeader validates a DCG1 header and returns the declared sizes.
func parseBinHeader(hdr [28]byte) (n64, m64 uint64, shard uint32, err error) {
	if string(hdr[0:4]) != binMagic {
		return 0, 0, 0, fmt.Errorf("graph: bad magic %q (not a %s binary graph)", hdr[0:4], binMagic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != binVersion {
		return 0, 0, 0, fmt.Errorf("graph: unsupported binary version %d (want %d)", v, binVersion)
	}
	n64 = binary.LittleEndian.Uint64(hdr[8:16])
	m64 = binary.LittleEndian.Uint64(hdr[16:24])
	shard = binary.LittleEndian.Uint32(hdr[24:28])
	if n64 > maxBinVertices {
		return 0, 0, 0, fmt.Errorf("graph: header declares %d vertices (max %d)", n64, maxBinVertices)
	}
	if m64 > maxBinEdges {
		return 0, 0, 0, fmt.Errorf("graph: header declares %d edges (max %d)", m64, maxBinEdges)
	}
	if max := n64 * (n64 - 1) / 2; m64 > max {
		return 0, 0, 0, fmt.Errorf("graph: header declares %d edges but n=%d admits at most %d", m64, n64, max)
	}
	// Isolated vertices cost no payload bytes, so n is otherwise
	// uncorroborated by the input: without this clamp a 28-byte header
	// could demand O(n) adjacency allocations for n up to maxBinVertices.
	if n64 > 2*m64+maxBinFreeVertices {
		return 0, 0, 0, fmt.Errorf("graph: header declares %d vertices with only %d edges (isolated-vertex allowance is 2m+%d)", n64, m64, maxBinFreeVertices)
	}
	if shard < 1 || shard > maxBinShard {
		return 0, 0, 0, fmt.Errorf("graph: shard size %d outside [1, %d]", shard, maxBinShard)
	}
	return n64, m64, shard, nil
}

// OpenBinaryShards loads a DCG1 binary graph file through the streaming
// per-shard path (ReadBinaryShards) with the balanced sharding into the
// given number of vertex shards; shards < 1 selects AutoSharding.
func OpenBinaryShards(path string, shards int) (*Graph, Sharding, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Sharding{}, err
	}
	defer f.Close()
	g, sh, err := ReadBinaryShards(f, shards)
	if err != nil {
		return nil, Sharding{}, fmt.Errorf("%s: %w", path, err)
	}
	return g, sh, nil
}

// ReadBinaryShards parses the DCG1 binary format in two streaming passes
// and materializes the CSR adjacency one vertex shard at a time. It
// accepts exactly the inputs ReadBinary accepts and builds the identical
// graph (same sorted adjacency, hence identical engine port numbering);
// a fuzz target pins the equivalence.
//
// The point is peak memory. ReadBinary stages every endpoint pair in a
// flat array (8 bytes per edge) before carving the CSR, so its load peak
// is the CSR plus a whole-graph staging copy. This reader streams the
// file once to count degrees (4 bytes per vertex), seeks back, and
// streams again filling one backing allocation per vertex shard - no
// whole-graph staging exists at any point, and the transient working set
// beyond the CSR itself is the degree array plus one I/O buffer, sized
// to the payload when that is under 1 MiB and reused by both passes.
// shards < 1 selects AutoSharding(n).
func ReadBinaryShards(rs io.ReadSeeker, shards int) (*Graph, Sharding, error) {
	start, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, Sharding{}, fmt.Errorf("graph: sharded reader needs a seekable input: %w", err)
	}
	var hdr [28]byte
	if _, err := io.ReadFull(rs, hdr[:]); err != nil {
		return nil, Sharding{}, fmt.Errorf("graph: binary header: %w", err)
	}
	n64, m64, shardSize, err := parseBinHeader(hdr)
	if err != nil {
		return nil, Sharding{}, err
	}
	n, m := int(n64), int(m64)
	var sh Sharding
	if shards < 1 {
		sh = AutoSharding(n)
	} else if sh, err = NewSharding(n, shards); err != nil {
		return nil, Sharding{}, err
	}
	// The input is a seeker by contract, so a byte-size hint is always
	// available here: reject a forged edge count before the O(n) degree
	// allocation below (parseBinHeader's isolated-vertex clamp already
	// ties n to m, so this bounds both by the input size).
	payload := int64(-1)
	if end, serr := rs.Seek(0, io.SeekEnd); serr == nil {
		payload = end - start - 28
		if _, serr = rs.Seek(start+28, io.SeekStart); serr != nil {
			return nil, Sharding{}, fmt.Errorf("graph: rewinding after the size probe: %w", serr)
		}
		if need := binMinPayload(m64, shardSize); payload < need {
			return nil, Sharding{}, fmt.Errorf("graph: header declares %d edges needing %d payload bytes, input holds %d", m, need, payload)
		}
	}

	// Pass 1: stream the edge payload, validate every record, count
	// degrees. The only O(graph) allocation is the int32 degree array.
	deg := make([]int32, n)
	buf := make([]byte, 8*min(int(shardSize), m, 1<<13))
	br := bufio.NewReaderSize(rs, readBufSize(payload))
	err = scanBinEdges(br, m, int(shardSize), buf, func(u, v uint32) error {
		if err := checkBinEdge(u, v, n); err != nil {
			return err
		}
		deg[u]++
		deg[v]++
		return nil
	})
	if err != nil {
		return nil, Sharding{}, err
	}

	// Carve per-shard CSR backings: adjacency slices of shard k point
	// into backing allocation k only, giving the engine's per-shard
	// sweeps disjoint cache-line territory.
	adj := make([][]int, n)
	for k := 0; k < sh.NumShards(); k++ {
		lo, hi := sh.Bounds(k)
		carve(adj[lo:hi], deg[lo:hi])
	}

	// Pass 2: seek back and stream again, appending endpoints into the
	// shard backings. The capacity check guards the only way pass 2 can
	// diverge from pass 1 - the underlying file changing between passes -
	// so a concurrent writer cannot make an append silently reallocate a
	// vertex's list outside its shard backing.
	if _, err := rs.Seek(start+28, io.SeekStart); err != nil {
		return nil, Sharding{}, fmt.Errorf("graph: rewinding for the fill pass: %w", err)
	}
	br.Reset(rs)
	err = scanBinEdges(br, m, int(shardSize), buf, func(u32, v32 uint32) error {
		u, v := int(u32), int(v32)
		if u >= n || v >= n || len(adj[u]) == cap(adj[u]) || len(adj[v]) == cap(adj[v]) {
			return fmt.Errorf("input changed between the count and fill passes")
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		return nil
	})
	if err != nil {
		return nil, Sharding{}, err
	}
	if err := sortAdjacency(adj); err != nil {
		return nil, Sharding{}, err
	}
	return &Graph{n: n, m: m, adj: adj}, sh, nil
}

// scanBinEdges streams the shard-framed edge payload of a DCG1 file,
// validating the framing (shard counts, edge totals, trailing bytes) and
// handing every (u, v) record to visit. buf is the caller-provided record
// buffer; its length bounds the working set.
func scanBinEdges(br *bufio.Reader, m, shardSize int, buf []byte, visit func(u, v uint32) error) error {
	remaining := m
	for si := 0; remaining > 0; si++ {
		var cb [4]byte
		if _, err := io.ReadFull(br, cb[:]); err != nil {
			return fmt.Errorf("graph: shard %d header: %w", si, err)
		}
		count := int(binary.LittleEndian.Uint32(cb[:]))
		if count < 1 || count > shardSize {
			return fmt.Errorf("graph: shard %d declares %d edges (shard size %d)", si, count, shardSize)
		}
		if count > remaining {
			return fmt.Errorf("graph: shard %d declares %d edges, only %d remain of m=%d", si, count, remaining, m)
		}
		for count > 0 {
			k := min(count, len(buf)/8)
			if _, err := io.ReadFull(br, buf[:k*8]); err != nil {
				return fmt.Errorf("graph: shard %d records: %w", si, err)
			}
			for i := 0; i < k; i++ {
				u := binary.LittleEndian.Uint32(buf[i*8:])
				v := binary.LittleEndian.Uint32(buf[i*8+4:])
				if err := visit(u, v); err != nil {
					return fmt.Errorf("graph: edge %d: %w", m-remaining+i, err)
				}
			}
			count -= k
			remaining -= k
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("graph: trailing data after %d edges", m)
	}
	return nil
}

// checkBinEdge is the per-record check both DCG1 readers apply: the
// endpoints must lie in [0, n) and differ.
func checkBinEdge(u, v uint32, n int) error {
	if u >= uint32(n) || v >= uint32(n) {
		return fmt.Errorf("edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("edge is a self-loop at %d", u)
	}
	return nil
}

// sortAdjacency sorts every adjacency list in place - the order that
// fixes the engine's port numbering - and rejects a repeated neighbor,
// which is a duplicate edge of the input.
func sortAdjacency(adj [][]int) error {
	for v, l := range adj {
		sort.Ints(l)
		for i := 1; i < len(l); i++ {
			if l[i] == l[i-1] {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", min(v, l[i]), max(v, l[i]))
			}
		}
	}
	return nil
}
