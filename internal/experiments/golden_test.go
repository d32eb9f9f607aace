package experiments

import (
	"hash/fnv"
	"testing"

	"repro/internal/arbdefect"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/recolor"
)

// The goldens below were captured from the seed implementations (per-call
// field.NewFamily in recolorOnce, map-backed graph.Orientation) at
// n=1000, seed=1, before the memoized-family / dense-orientation rewrite.
// The rewrite must stay bit-for-bit identical: same colors (hashed), same
// rounds, same message counts, on the E04 (Linial), E05 (defective) and
// E14 (Arb-Kuhn, orientation-heavy) workloads. E14's messages count the
// H-partition's sends too, which the seed's complete-orientation phase
// left out; its colors and rounds are the seed captures.

type golden struct {
	param    int
	hash     uint64
	rounds   int
	messages int64
}

var (
	goldenE04 = []golden{
		{4, 0xa738aafcfc410ced, 1, 3996},
		{8, 0xb11e02a4ad0b6814, 1, 7970},
		{16, 0xaa80fd8abd429555, 0, 0},
	}
	goldenE05 = []golden{
		{2, 0x84a9deb63d24f286, 2, 47428},
		{4, 0x70eeb95deb96ea49, 1, 23700},
		{8, 0x53e8bb790a29950b, 1, 23690},
	}
	goldenE14 = []golden{
		{2, 0x08a8138fda136272, 4, 101645},
		{4, 0xb920dc1b2e572329, 4, 102192},
		{8, 0x5d637de75b70df5a, 4, 102154},
	}
)

func hashColors(colors []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range colors {
		v := uint64(c)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func checkGolden(t *testing.T, exp string, want golden, colors []int, rounds int, messages int64) {
	t.Helper()
	if got := hashColors(colors); got != want.hash {
		t.Errorf("%s param=%d: colors hash %#x, seed implementation had %#x", exp, want.param, got, want.hash)
	}
	if rounds != want.rounds {
		t.Errorf("%s param=%d: rounds %d, seed had %d", exp, want.param, rounds, want.rounds)
	}
	if messages != want.messages {
		t.Errorf("%s param=%d: messages %d, seed had %d", exp, want.param, messages, want.messages)
	}
}

func TestGoldenE04LinialBitForBit(t *testing.T) {
	s := Sizes{N: 1000, Seed: 1}
	for _, want := range goldenE04 {
		rng := s.rng(300 + int64(want.param))
		g := graph.RandomRegularish(s.N, want.param, rng)
		net := dist.NewNetworkPermuted(g, rng)
		res, err := recolor.Linial(net)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "E04", want, res.Colors, res.Rounds, res.Messages)
	}
}

func TestGoldenE05DefectiveBitForBit(t *testing.T) {
	s := Sizes{N: 1000, Seed: 1}
	for _, want := range goldenE05 {
		rng := s.rng(400 + int64(want.param))
		g := graph.RandomRegularish(s.N, 24, rng)
		net := dist.NewNetworkPermuted(g, rng)
		res, err := recolor.Defective(net, want.param)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "E05", want, res.Colors, res.Rounds, res.Messages)
	}
}

func TestGoldenE14ArbKuhnBitForBit(t *testing.T) {
	s := Sizes{N: 1000, Seed: 1}
	for _, want := range goldenE14 {
		_, net := s.forestNet(16, 1300+int64(want.param))
		res, err := arbdefect.Kuhn(net, 16, want.param, forest.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "E14", want, res.Colors, res.Tally.Rounds(), res.Tally.Messages())
	}
}
