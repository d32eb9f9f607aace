package recolor

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// The RunUniform shadow tests used to run each workload on the typed word
// plane and on the boxed []any plane and compare colors, rounds and
// messages. The boxed plane is gone; what it produced on each instance is
// frozen below as a golden (colors hashed with FNV-64a), so the word plane
// still has to reproduce it bit for bit.

// hashInts is the FNV-64a hash of the little-endian 8-byte encodings of
// xs - the experiments package's golden colors hash.
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

// uniformGolden is one frozen RunUniform run.
type uniformGolden struct {
	hash     uint64
	rounds   int
	messages int64
}

// goldenRunUniform runs RunUniform on the shadow tests' permuted network
// and fails unless colors, rounds and messages match the frozen run.
func goldenRunUniform(t *testing.T, g *graph.Graph, p Params, dirs []int64, labels []int, active []bool, want uniformGolden) []int {
	t.Helper()
	net := dist.NewNetworkPermuted(g, rand.New(rand.NewSource(42)))
	dst := make([]int, g.N())
	st, err := RunUniform(net, p, dirs, labels, active, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got := (uniformGolden{hashInts(dst), st.Rounds, st.Messages}); got != want {
		t.Errorf("RunUniform(%+v): got {%#x, %d, %d}, frozen boxed run had {%#x, %d, %d}",
			p, got.hash, got.rounds, got.messages, want.hash, want.rounds, want.messages)
	}
	return dst
}

func TestRunUniformWordShadowsBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	g := graph.Gnp(250, 0.03, rng)
	n := g.N()
	delta := g.MaxDegree()

	// Linial (legal) and defective variants, whole graph.
	goldenRunUniform(t, g, Params{Color: -1, M0: n, DegBound: delta, TargetDefect: 0}, nil, nil, nil,
		uniformGolden{0xbd86c5fa9e785ee4, 0, 0})
	goldenRunUniform(t, g, Params{Color: -1, M0: n, DegBound: delta, TargetDefect: delta / 2}, nil, nil, nil,
		uniformGolden{0x48fd5d6d9d205012, 2, 3684})

	// Label/active-filtered run.
	labels := make([]int, n)
	active := make([]bool, n)
	for v := range labels {
		labels[v] = rng.Intn(2)
		active[v] = rng.Intn(8) > 0
	}
	goldenRunUniform(t, g, Params{Color: -1, M0: n, DegBound: delta, TargetDefect: 0}, nil, labels, active,
		uniformGolden{0x3350c3081e61ff4f, 0, 0})
}

func TestRunUniformArbShadowsBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	g := graph.ForestUnion(300, 3, rng)

	// Acyclic orientation: every edge towards the larger endpoint.
	sigma := graph.NewOrientation(g)
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				if err := sigma.Orient(v, u); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	p := Params{Color: -1, M0: g.N(), DegBound: sigma.MaxOutDegree(), TargetDefect: 1}
	colors := goldenRunUniform(t, g, p, dirsOf(sigma), nil, nil, uniformGolden{0x15b6746721cf8137, 1, 1778})
	if len(colors) != g.N() {
		t.Fatal("missing colors")
	}
}
