package distcolor

import (
	"io"
	"math/rand"

	"repro/internal/graph"
)

// Graph is a finite simple undirected graph (see internal/graph for the
// full method set: Neighbors, Degree, MaxDegree, Degeneracy, coloring and
// MIS verifiers, edge-list I/O, ...).
type Graph = graph.Graph

// Orientation is a (partial) edge orientation with the paper's parameters:
// out-degree, deficit and length (Section 2.1).
type Orientation = graph.Orientation

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges [][2]int) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadEdgeList parses the "n m" + "u v" edge-list format. Parse errors
// carry 1-based line numbers, and a missing or implausible "n m" header
// is reported explicitly.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadBinary parses the sharded DCG1 binary graph format through a
// chunked streaming reader — the large-instance companion of the text
// edge list (see graphgen -binary).
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// OpenBinary loads a DCG1 binary graph file.
func OpenBinary(path string) (*Graph, error) { return graph.OpenBinary(path) }

// Sharding is a contiguous partition of the vertex space into shards,
// the unit of sharded engine views and of streaming binary loads.
type Sharding = graph.Sharding

// BinStat is the header summary of a DCG1 binary graph file.
type BinStat = graph.BinStat

// MaxShards is the largest supported shard count.
const MaxShards = graph.MaxShards

// NewSharding partitions n vertices into k near-equal contiguous shards.
func NewSharding(n, k int) (Sharding, error) { return graph.NewSharding(n, k) }

// AutoSharding picks a shard count for n vertices targeting ~256k
// vertices per shard, clamped to [1, MaxShards].
func AutoSharding(n int) Sharding { return graph.AutoSharding(n) }

// OpenBinaryShards loads a DCG1 binary graph file through the streaming
// per-shard reader: peak memory during the load is bounded by one
// shard's adjacency plus a degree pass, instead of the whole edge list.
// shards <= 0 selects AutoSharding.
func OpenBinaryShards(path string, shards int) (*Graph, Sharding, error) {
	return graph.OpenBinaryShards(path, shards)
}

// StatBinary reads just the DCG1 header: vertex/edge counts and the
// file's shard framing, without loading the graph.
func StatBinary(r io.Reader) (BinStat, error) { return graph.StatBinary(r) }

// StatBinaryFile reads the DCG1 header of a file.
func StatBinaryFile(path string) (BinStat, error) { return graph.StatBinaryFile(path) }

// Load reads a graph in either supported format, sniffing the DCG1 magic.
func Load(r io.Reader) (*Graph, error) { return graph.Load(r) }

// LoadFile reads a graph file in either supported format.
func LoadFile(path string) (*Graph, error) { return graph.LoadFile(path) }

// LogStar returns log* n.
func LogStar(n int) int { return graph.LogStar(n) }

// NumColors returns the number of distinct colors in a coloring.
func NumColors(colors []int) int { return graph.NumColors(colors) }

// MaxColor returns the largest color value used.
func MaxColor(colors []int) int { return graph.MaxColor(colors) }

// Deterministic graph generators for the paper's workload families.
// All take an explicit seed for reproducibility.

// GenPath returns the path on n vertices.
func GenPath(n int) *Graph { return graph.Path(n) }

// GenCycle returns the cycle on n >= 3 vertices.
func GenCycle(n int) (*Graph, error) { return graph.Cycle(n) }

// GenStar returns the star K_{1,n-1}.
func GenStar(n int) *Graph { return graph.Star(n) }

// GenComplete returns K_n.
func GenComplete(n int) *Graph { return graph.Complete(n) }

// GenGrid returns the rows x cols grid (arboricity <= 2).
func GenGrid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// GenTree returns a random recursive tree.
func GenTree(n int, seed int64) *Graph {
	return graph.RandomTree(n, rand.New(rand.NewSource(seed)))
}

// GenGnp returns an Erdos-Renyi G(n, p) graph.
func GenGnp(n int, p float64, seed int64) *Graph {
	return graph.Gnp(n, p, rand.New(rand.NewSource(seed)))
}

// GenForestUnion returns a union of k random forests: arboricity <= k by
// construction. The canonical bounded-arboricity workload.
func GenForestUnion(n, k int, seed int64) *Graph {
	return graph.ForestUnion(n, k, rand.New(rand.NewSource(seed)))
}

// GenStarForest returns a small-arboricity graph with huge maximum degree
// (the a << Delta regime of Corollary 4.7): arb forests plus `hubs` star
// centers of degree hubDegree.
func GenStarForest(n, arb, hubs, hubDegree int, seed int64) *Graph {
	return graph.StarForest(n, arb, hubs, hubDegree, rand.New(rand.NewSource(seed)))
}

// GenPowerLaw returns a preferential-attachment graph with degeneracy <= k
// and a heavy degree tail (social-network workload).
func GenPowerLaw(n, k int, seed int64) *Graph {
	return graph.PowerLawish(n, k, rand.New(rand.NewSource(seed)))
}

// GenRegular returns a near-d-regular graph.
func GenRegular(n, d int, seed int64) *Graph {
	return graph.RandomRegularish(n, d, rand.New(rand.NewSource(seed)))
}

// GenUnitDisk returns a random geometric graph on a side x side square
// with the given connection radius (wireless-network workload).
func GenUnitDisk(n int, side, radius float64, seed int64) *Graph {
	return graph.UnitDiskish(n, side, radius, rand.New(rand.NewSource(seed)))
}
