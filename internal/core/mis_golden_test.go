package core

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// TestMISFromColoringGolden pins the color-class MIS sweep bit for bit -
// MIS flags hashed as 0/1 words with FNV-64a, rounds and messages - on
// two graph families and two seeds each, from a greedy degeneracy-order
// coloring. The values were captured from the boxed []any implementation
// before the program moved to the word plane.
func TestMISFromColoringGolden(t *testing.T) {
	for _, want := range []struct {
		family   string
		seed     int64
		hash     uint64
		rounds   int
		messages int64
	}{
		{"gnp", 1, 0x1606ae9cf137a65, 5, 672},
		{"gnp", 2, 0x74eaf527624aafc5, 6, 667},
		{"forest-union", 1, 0x6d72bb5acb6cbec5, 4, 564},
		{"forest-union", 2, 0xc24dd7a6e04bfce4, 4, 568},
	} {
		rng := rand.New(rand.NewSource(want.seed))
		var g *graph.Graph
		switch want.family {
		case "gnp":
			g = graph.Gnp(300, 0.03, rng)
		case "forest-union":
			g = graph.ForestUnion(300, 3, rng)
		}
		_, order := g.Degeneracy()
		rev := make([]int, len(order))
		for i, v := range order {
			rev[len(order)-1-i] = v
		}
		colors := g.GreedyColorByOrder(rev)
		res, err := MISFromColoring(dist.NewNetworkPermuted(g, rng), colors)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, in := range res.InMIS {
			clear(buf[:])
			if in {
				buf[0] = 1
			}
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != want.hash || res.Rounds != want.rounds || res.Messages != want.messages {
			t.Errorf("%s seed=%d: got {%#x, %d, %d}, boxed implementation had {%#x, %d, %d}",
				want.family, want.seed, got, res.Rounds, res.Messages, want.hash, want.rounds, want.messages)
		}
	}
}
