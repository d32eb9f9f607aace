package experiments

import (
	"testing"

	"repro/internal/arbdefect"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/recolor"
)

// A sharded engine view must reproduce the seed goldens bit for bit at
// every shard count: a sharding only partitions the vertices over the
// same message columns, it never changes what is delivered. Each golden
// workload below reruns under 2, 4 and the auto shard count and is
// checked against the exact same hashes/rounds/messages as the flat
// golden tests.

// shardGoldenCounts returns the shard counts every golden workload is
// replayed under.
func shardGoldenCounts(t *testing.T, n int) []graph.Sharding {
	t.Helper()
	var out []graph.Sharding
	for _, k := range []int{2, 4} {
		sh, err := graph.NewSharding(n, k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sh)
	}
	return append(out, graph.AutoSharding(n))
}

func TestGoldenE04LinialShardedBitForBit(t *testing.T) {
	s := Sizes{N: 1000, Seed: 1}
	for _, want := range goldenE04 {
		for _, sh := range shardGoldenCounts(t, s.N) {
			// Re-deriving graph and permutation per shard count replays the
			// exact rng stream of the flat golden test.
			rng := s.rng(300 + int64(want.param))
			g := graph.RandomRegularish(s.N, want.param, rng)
			net, err := dist.NewNetworkPermuted(g, rng).Sharded(sh)
			if err != nil {
				t.Fatal(err)
			}
			res, err := recolor.Linial(net)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "E04/sharded", want, res.Colors, res.Rounds, res.Messages)
		}
	}
}

func TestGoldenE05DefectiveShardedBitForBit(t *testing.T) {
	s := Sizes{N: 1000, Seed: 1}
	for _, want := range goldenE05 {
		for _, sh := range shardGoldenCounts(t, s.N) {
			rng := s.rng(400 + int64(want.param))
			g := graph.RandomRegularish(s.N, 24, rng)
			net, err := dist.NewNetworkPermuted(g, rng).Sharded(sh)
			if err != nil {
				t.Fatal(err)
			}
			res, err := recolor.Defective(net, want.param)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "E05/sharded", want, res.Colors, res.Rounds, res.Messages)
		}
	}
}

func TestGoldenE14ArbKuhnShardedBitForBit(t *testing.T) {
	s := Sizes{N: 1000, Seed: 1}
	for _, want := range goldenE14 {
		for _, sh := range shardGoldenCounts(t, s.N) {
			_, net := s.forestNet(16, 1300+int64(want.param))
			net, err := net.Sharded(sh)
			if err != nil {
				t.Fatal(err)
			}
			res, err := arbdefect.Kuhn(net, 16, want.param, forest.DefaultEps)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "E14/sharded", want, res.Colors, res.Tally.Rounds(), res.Tally.Messages())
		}
	}
}
