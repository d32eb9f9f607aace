package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Binary graph format ("DCG1"), the large-instance companion of the text
// edge list. Everything is little-endian:
//
//	magic   [4]byte "DCG1"
//	version uint32  (currently 1)
//	n       uint64  vertex count
//	m       uint64  edge count
//	shard   uint32  edges per shard
//
// followed by ceil(m/shard) shards, each
//
//	count uint32            edges in this shard (== shard except the last)
//	count x (u, v) uint32   edge endpoints, u < v
//
// Shards bound the reader's working set (the chunked reader never buffers
// more than one shard's worth of records at a time) and give loaders a
// natural unit for future parallel or partial ingestion. An n=10^6,
// m=8*10^6 instance is a 64 MB file that loads in a single pass with no
// per-edge allocation, where the text format needs ~120 MB and a
// strconv round trip per edge.

const (
	binMagic   = "DCG1"
	binVersion = 1

	// DefaultBinaryShard is the shard granularity WriteBinary uses.
	DefaultBinaryShard = 1 << 16

	maxBinVertices = 1<<31 - 1
	maxBinEdges    = 1<<31 - 1
	maxBinShard    = 1 << 24

	// maxBinFreeVertices bounds the vertices a header may declare beyond
	// the edge-backed ones (2m endpoints). Isolated vertices cost zero
	// payload bytes, so without this clamp a 28-byte file could demand
	// O(n) adjacency allocations for any n up to maxBinVertices - an
	// allocation bomb on untrusted input. With it, the readers' O(n+m)
	// working set is bounded by a constant multiple of the input size
	// plus this fixed slack. The writer enforces the same bound so every
	// written file loads back.
	maxBinFreeVertices = 1 << 21
)

// binMinPayload is the smallest possible byte size of the edge payload
// for m declared edges at the given on-disk shard size: one 4-byte count
// per maximally-packed shard plus 8 bytes per edge. (Sparser framings
// are legal and larger, so this is a floor, not the exact size.)
func binMinPayload(m64 uint64, shard uint32) int64 {
	if m64 == 0 {
		return 0
	}
	shards := (m64 + uint64(shard) - 1) / uint64(shard)
	return int64(4*shards + 8*m64)
}

// byteSizeHint reports the bytes remaining in r when it is seekable, or
// -1 when it is not (position is restored either way). Readers use it to
// reject forged headers whose declared sizes could not possibly fit the
// input, before any size-proportional allocation.
func byteSizeHint(r io.Reader) int64 {
	s, ok := r.(io.Seeker)
	if !ok {
		return -1
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return -1
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return -1
	}
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return -1
	}
	return end - cur
}

// readBufSize sizes an input reader's I/O buffer: 1 MiB, or the bytes
// left in the input when a size hint says it holds fewer (hint < 0:
// unknown).
func readBufSize(hint int64) int {
	if hint >= 0 && hint < 1<<20 {
		return int(hint)
	}
	return 1 << 20
}

// WriteBinary writes the graph in the DCG1 binary format with the default
// shard size.
func (g *Graph) WriteBinary(w io.Writer) error {
	return g.WriteBinarySharded(w, DefaultBinaryShard)
}

// WriteBinarySharded writes the DCG1 format with an explicit shard size.
func (g *Graph) WriteBinarySharded(w io.Writer, shardSize int) error {
	if shardSize < 1 || shardSize > maxBinShard {
		return fmt.Errorf("graph: binary shard size %d outside [1, %d]", shardSize, maxBinShard)
	}
	if g.n > maxBinVertices {
		return fmt.Errorf("graph: %d vertices exceed the binary format's %d", g.n, maxBinVertices)
	}
	if g.m > maxBinEdges {
		return fmt.Errorf("graph: %d edges exceed the binary format's %d", g.m, maxBinEdges)
	}
	if uint64(g.n) > 2*uint64(g.m)+maxBinFreeVertices {
		return fmt.Errorf("graph: %d vertices with only %d edges exceed the binary format's isolated-vertex allowance (2m+%d)", g.n, g.m, maxBinFreeVertices)
	}
	// The writer packs every shard but the last, so the file is exactly
	// the header plus the minimal payload; a small graph gets a small
	// buffer.
	size := min(1<<20, 28+binMinPayload(uint64(g.m), uint32(shardSize)))
	bw := bufio.NewWriterSize(w, int(size))
	var hdr [28]byte
	copy(hdr[0:4], binMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], binVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.m))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(shardSize))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [8]byte
	written, pending := 0, 0
	for v := 0; v < g.n; v++ {
		for _, u := range g.adj[v] {
			if u < v {
				continue // each edge once, from its smaller endpoint
			}
			if pending == 0 {
				pending = g.m - written
				if pending > shardSize {
					pending = shardSize
				}
				binary.LittleEndian.PutUint32(rec[:4], uint32(pending))
				if _, err := bw.Write(rec[:4]); err != nil {
					return err
				}
			}
			binary.LittleEndian.PutUint32(rec[0:4], uint32(v))
			binary.LittleEndian.PutUint32(rec[4:8], uint32(u))
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
			written++
			pending--
		}
	}
	return bw.Flush()
}

// OpenBinary loads a DCG1 binary graph file (see WriteBinary).
func OpenBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// ReadBinary parses the DCG1 binary format through a chunked single-pass
// reader: shards stream through a fixed-size record buffer
// (scanBinEdges, the framing parser ReadBinaryShards shares) into a flat
// endpoint array, and the adjacency structure is carved out of one
// backing allocation. It validates magic, version, declared sizes, edge
// endpoints, self-loops, duplicates and trailing garbage, and bounds its
// allocations by the input size (a seekable r is probed for a byte-size
// hint; otherwise edge storage grows only as records actually arrive),
// so it is safe on untrusted input (see FuzzReadBinary). The same hint
// caps its I/O buffer (1 MiB, or the input size when smaller), so a
// small file costs no megabyte to load; a *bufio.Reader is read as is.
// One pass is all it needs, so r need not be seekable (Load hands it a
// bufio.Reader).
func ReadBinary(r io.Reader) (*Graph, error) {
	hint := byteSizeHint(r)
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, readBufSize(hint))
	}
	var hdr [28]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	n64, m64, shard, err := parseBinHeader(hdr)
	if err != nil {
		return nil, err
	}
	if need := binMinPayload(m64, shard); hint >= 0 && hint < 28+need {
		return nil, fmt.Errorf("graph: header declares %d edges needing %d payload bytes, input holds %d", m64, need, hint-28)
	}
	n, m := int(n64), int(m64)

	// Endpoint array, grown as shards arrive so a forged header cannot
	// force a huge allocation up front.
	ends := make([]uint32, 0, min(2*m, 1<<20))
	buf := make([]byte, 8*min(int(shard), m, 1<<13))
	err = scanBinEdges(br, m, int(shard), buf, func(u, v uint32) error {
		if err := checkBinEdge(u, v, n); err != nil {
			return err
		}
		ends = append(ends, u, v)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Carve the adjacency lists out of one backing array (CSR layout).
	deg := make([]int32, n)
	for i := 0; i < len(ends); i += 2 {
		deg[ends[i]]++
		deg[ends[i+1]]++
	}
	adj := make([][]int, n)
	carve(adj, deg)
	for i := 0; i < len(ends); i += 2 {
		u, v := int(ends[i]), int(ends[i+1])
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	if err := sortAdjacency(adj); err != nil {
		return nil, err
	}
	return &Graph{n: n, m: m, adj: adj}, nil
}

// Load reads a graph from r in either supported format, sniffing the
// DCG1 magic to pick the binary or the text edge-list parser. Its one
// reader is sized like ReadBinary's: by the input when r is seekable.
func Load(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, readBufSize(byteSizeHint(r)))
	head, err := br.Peek(4)
	if err == nil && string(head) == binMagic {
		return ReadBinary(br)
	}
	return ReadEdgeList(br)
}

// LoadFile reads a graph file in either supported format.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
