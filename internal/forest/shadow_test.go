package forest

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// The forest-phase shadow suite used to run every phase of this package -
// H-partition, orientation exchange, wait-for-parents, forest assignment -
// on both the typed word plane and the boxed []any plane and compare them.
// The boxed plane is gone; what it produced on each instance below is
// frozen as a golden (levels/colors/directions hashed with FNV-64a, plus
// rounds and messages), so the word plane still has to reproduce it bit
// for bit.

func shadowNet(g *graph.Graph) *dist.Network {
	return dist.NewNetworkPermuted(g, rand.New(rand.NewSource(91)))
}

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

// runGolden is one frozen run: hash of the per-vertex (or per-port)
// result, rounds and messages.
type runGolden struct {
	hash     uint64
	rounds   int
	messages int64
}

func checkRun(t *testing.T, what string, want runGolden, vals []int, rounds int, messages int64) {
	t.Helper()
	got := runGolden{hashInts(vals), rounds, messages}
	if got != want {
		t.Errorf("%s: got {%#x, %d, %d}, frozen boxed run had {%#x, %d, %d}",
			what, got.hash, got.rounds, got.messages, want.hash, want.rounds, want.messages)
	}
}

func TestHPartitionWordShadowsBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := graph.ForestUnion(500, 3, rng)
	net := shadowNet(g)
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = rng.Intn(2)
	}
	for i, c := range []struct {
		labels    []int
		want      runGolden
		numLevels int
	}{
		{nil, runGolden{0x553476f3a8529fe7, 3, 4734}, 3},
		{labels, runGolden{0x83ae4d2497ae1345, 2, 1576}, 2},
	} {
		hp, err := ComputeHPartition(net, 3, DefaultEps, c.labels, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, "h-partition", c.want, hp.Level, hp.Rounds, hp.Messages)
		if hp.NumLevels != c.numLevels || hp.Degree != DefaultEps.Threshold(3) {
			t.Errorf("case %d: %d levels (degree %d), frozen boxed run had %d", i, hp.NumLevels, hp.Degree, c.numLevels)
		}
	}
}

func TestOrientByLevelKeyWordShadowsBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	g := graph.Gnp(300, 0.02, rng)
	net := shadowNet(g)
	levels := make([]int, g.N())
	keys := make([]int, g.N())
	active := make([]bool, g.N())
	for v := range levels {
		levels[v] = rng.Intn(4)
		keys[v] = rng.Intn(50)
		active[v] = rng.Intn(10) > 0
	}
	for _, c := range []struct {
		active []bool
		want   runGolden
	}{
		{nil, runGolden{0x50c7d4fb5df4b5e5, 1, 1838}},
		{active, runGolden{0xb71e8c80cf1b9465, 1, 1428}},
	} {
		or, err := OrientByLevelKey(net, levels, keys, nil, c.active)
		if err != nil {
			t.Fatal(err)
		}
		sigma := or.Orientation(net)
		var dirs []int
		for v := 0; v < g.N(); v++ {
			for _, d := range sigma.PortDirs(v) {
				dirs = append(dirs, int(d))
			}
		}
		checkRun(t, "orientation", c.want, dirs, or.Rounds, or.Messages)
	}
}

func TestWaitColorWordShadowsBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	g := graph.ForestUnion(400, 4, rng)
	net := shadowNet(g)
	// Orient towards the larger endpoint: acyclic, bounded length.
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
	palette := sigma.MaxOutDegree() + 1
	for _, c := range []struct {
		rule ChoiceRule
		want runGolden
	}{
		{RuleFirstFree, runGolden{0xe3a4f8094978eb46, 20, 3182}},
		{RuleLeastUsed, runGolden{0xe3a4f8094978eb46, 20, 3182}},
	} {
		wc, err := WaitColor(net, resultOf(sigma), palette, c.rule)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, "wait-color", c.want, wc.Colors, wc.Rounds, wc.Messages)
	}
}

// TestWaitColorPaletteExhaustedFailsOnBothPlanes pins the Node.Fail
// error path: with a one-color palette under RuleFirstFree, any vertex
// with a parent fails, the run aborts, and the run reports the exact
// palette-exhausted error both planes reported through the per-run
// error slot.
func TestWaitColorPaletteExhaustedFailsOnBothPlanes(t *testing.T) {
	g := graph.Path(3)
	net := shadowNet(g)
	sigma := graph.NewOrientation(g)
	if err := sigma.Orient(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sigma.Orient(1, 2); err != nil {
		t.Fatal(err)
	}
	const want = "dist: vertex 1 (id 3): forest: palette of size 1 exhausted"
	_, err := WaitColor(net, resultOf(sigma), 1, RuleFirstFree)
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want the frozen failure %q", err, want)
	}
}

func TestDecomposeWordShadowsBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	g := graph.ForestUnion(300, 3, rng)
	d, err := Decompose(shadowNet(g), 3, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	// Forest indices in (v, u > v) adjacency order.
	var forests []int
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				forests = append(forests, d.ForestOf[[2]int{v, u}])
			}
		}
	}
	checkRun(t, "decompose", runGolden{0xb5fcf3c49337c482, 4, 1780}, forests, d.Rounds, d.Messages)
	if d.NumForests != 6 {
		t.Errorf("%d forests, frozen boxed run had 6", d.NumForests)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}
