package dist

import (
	"fmt"

	"repro/internal/graph"
)

// This file implements sharded network views. A view created with
// Sharded carries a partition of the vertex space into the contiguous
// ranges of a graph.Sharding; the engine runs it on the same flat
// message columns as every other view, so a sharding never changes
// where a message word lives or which value reaches which port in which
// round. What it does change is observable around the columns:
//
//   - Probed runs report per-shard telemetry: every RoundRecord carries
//     live nodes, messages sent and step wall per shard (ShardRoundStat),
//     and the probed step is chunked along the shard segments of the
//     ascending live list, stepped on at most the run's worker count.
//   - The view gets a fresh session, so shard sweeps measure cold
//     caches at every point; graph.OpenBinaryShards pairs with it to
//     bound peak load memory by one shard's adjacency.
//
// Results are bit-for-bit identical at every shard count; tests pin the
// equivalence exactly as the worker-count tests do.

// Sharded returns a view of the network carrying the given vertex
// partition. The view shares the graph and identifier assignment but
// gets a FRESH session. A zero-value or single-shard Sharding yields a
// view without per-shard telemetry (still on its own session, so shard
// sweeps get cold caches at every point including k=1). Runs on the view
// produce bit-for-bit the results of the unsharded network.
func (net *Network) Sharded(sh graph.Sharding) (*Network, error) {
	if k := sh.NumShards(); k > 0 && sh.N() != net.g.N() {
		return nil, fmt.Errorf("dist: sharding partitions %d vertices, graph has %d", sh.N(), net.g.N())
	}
	c := *net
	c.sharding = sh
	c.sess = &session{}
	return &c, nil
}

// NewNetworkSharded is NewNetwork followed by Sharded.
func NewNetworkSharded(g *graph.Graph, sh graph.Sharding) (*Network, error) {
	return NewNetwork(g).Sharded(sh)
}

// Sharding returns the vertex partition this view was created with (the
// zero value on unsharded networks).
func (net *Network) Sharding() graph.Sharding { return net.sharding }

// Shards returns the effective shard count of this view: the
// partition's count, or 1 on unsharded (and single-shard) views.
func (net *Network) Shards() int {
	if k := net.sharding.NumShards(); k > 1 {
		return k
	}
	return 1
}
