package baseline

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// The goldens below pin the randomized baselines and Cole-Vishkin bit for
// bit - output hash (FNV-64a over 8-byte little-endian words, MIS flags
// as 0/1), rounds and messages - on two graph families and two seeds
// each. They were captured from the boxed []any implementations before
// the programs moved to the word plane; no experiment covers randomized
// coloring or Cole-Vishkin, so these are their only pin.

type baselineGolden struct {
	family   string
	seed     int64
	hash     uint64
	rounds   int
	messages int64
}

func hashInts(xs []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		v := uint64(x)
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func boolsToInts(bs []bool) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		if b {
			out[i] = 1
		}
	}
	return out
}

// goldenNet builds the family's instance for a seed: the generator and
// the identifier permutation share one rng stream.
func goldenNet(family string, seed int64) *dist.Network {
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	switch family {
	case "gnp":
		g = graph.Gnp(300, 0.03, rng)
	case "forest-union":
		g = graph.ForestUnion(300, 3, rng)
	}
	return dist.NewNetworkPermuted(g, rng)
}

func checkBaselineGolden(t *testing.T, algo string, want baselineGolden, vals []int, rounds int, messages int64) {
	t.Helper()
	if got := hashInts(vals); got != want.hash || rounds != want.rounds || messages != want.messages {
		t.Errorf("%s %s seed=%d: got {%#x, %d, %d}, boxed implementation had {%#x, %d, %d}",
			algo, want.family, want.seed, got, rounds, messages, want.hash, want.rounds, want.messages)
	}
}

func TestLubyMISGolden(t *testing.T) {
	for _, want := range []baselineGolden{
		{"gnp", 1, 0x4478c3e42aeac8c4, 7, 4280},
		{"gnp", 2, 0xbf705b67a16d09c4, 8, 4518},
		{"forest-union", 1, 0xdeec277431993985, 6, 2755},
		{"forest-union", 2, 0x1d6c8f7b375294a5, 7, 2790},
	} {
		res, err := LubyMIS(goldenNet(want.family, want.seed), want.seed)
		if err != nil {
			t.Fatal(err)
		}
		checkBaselineGolden(t, "luby", want, boolsToInts(res.InMIS), res.Rounds, res.Messages)
	}
}

func TestRandomizedColoringGolden(t *testing.T) {
	for _, want := range []baselineGolden{
		{"gnp", 1, 0xa1dde634022c5823, 5, 6080},
		{"gnp", 2, 0x6890504a5f4a30d7, 5, 6094},
		{"forest-union", 1, 0x6a4feed9f88f079a, 5, 3867},
		{"forest-union", 2, 0xdc7a2678b13fee18, 5, 3948},
	} {
		res, err := RandomizedColoring(goldenNet(want.family, want.seed), want.seed)
		if err != nil {
			t.Fatal(err)
		}
		checkBaselineGolden(t, "randcolor", want, res.Colors, res.Rounds, res.Messages)
	}
}

// runSink keeps the run records of a probe; CVResult carries no message
// count, so the golden reads it from the engine's run record.
type runSink struct{ runs []dist.RunRecord }

func (s *runSink) FlushRounds([]dist.RoundRecord) error { return nil }
func (s *runSink) FlushRuns(rs []dist.RunRecord) error {
	s.runs = append(s.runs, rs...)
	return nil
}

func TestColeVishkinForestGolden(t *testing.T) {
	for _, want := range []baselineGolden{
		{"random-tree", 1, 0xd516a44d6b2f5a65, 10, 13980},
		{"random-tree", 2, 0xd8ad405dcfc2dda5, 10, 13980},
		{"path", 1, 0xf44f46b00c2fcdc5, 10, 13980},
		{"path", 2, 0x4c8e6d08d651bac5, 10, 13980},
	} {
		rng := rand.New(rand.NewSource(want.seed))
		var g *graph.Graph
		var parentOf []int
		switch want.family {
		case "random-tree":
			g, parentOf = randomRootedTree(700, rng)
		case "path":
			g = graph.Path(700)
			parentOf = make([]int, g.N())
			for v := range parentOf {
				parentOf[v] = v - 1
			}
		}
		sink := &runSink{}
		probe := dist.NewProbe(sink)
		res, err := ColeVishkinForest(dist.NewNetworkPermuted(g, rng).WithProbe(probe), parentOf)
		if cerr := probe.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(sink.runs) != 1 {
			t.Fatalf("%d engine runs, want 1", len(sink.runs))
		}
		checkBaselineGolden(t, "cole-vishkin", want, res.Colors, res.Rounds, sink.runs[0].Messages)
	}
}
