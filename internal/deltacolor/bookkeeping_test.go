package deltacolor

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// TestColorWithinWordShadowsBoxed pins the whole (Delta+1)-coloring
// recursion - defective splits, label compaction, base reduction,
// bottom-up merges - bit for bit, under base labels and an active mask.
// The test used to compare the typed word plane against the boxed []any
// plane; the boxed plane is gone, and what it produced on this instance
// (colors hashed with FNV-64a, palette, rounds, messages) is frozen below.
func TestColorWithinWordShadowsBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(420))
	g := graph.Gnp(220, 0.06, rng)
	base := dist.NewNetworkPermuted(g, rand.New(rand.NewSource(421)))
	labels := make([]int, g.N())
	active := make([]bool, g.N())
	for v := range labels {
		labels[v] = rng.Intn(2)
		active[v] = rng.Intn(9) > 0
	}
	degBound := 0
	for v := 0; v < g.N(); v++ {
		if !active[v] {
			continue
		}
		d := 0
		for _, u := range g.Neighbors(v) {
			if labels[u] == labels[v] && active[u] {
				d++
			}
		}
		if d > degBound {
			degBound = d
		}
	}
	res, err := ColorWithin(base, labels, active, degBound)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range res.Colors {
		for i := range buf {
			buf[i] = byte(uint64(c) >> (8 * i))
		}
		h.Write(buf[:])
	}
	const (
		wantHash     = 0xd194e8cc58f44bcd
		wantPalette  = 15
		wantRounds   = 137
		wantMessages = 4567
	)
	if got := h.Sum64(); got != wantHash || res.Palette != wantPalette ||
		res.Tally.Rounds() != wantRounds || res.Tally.Messages() != wantMessages {
		t.Fatalf("got colors %#x palette=%d rounds=%d messages=%d, frozen boxed run had %#x/%d/%d/%d",
			got, res.Palette, res.Tally.Rounds(), res.Tally.Messages(),
			uint64(wantHash), wantPalette, wantRounds, wantMessages)
	}
}

// BenchmarkDeltaColorBookkeeping measures the central simulation
// bookkeeping of ColorWithin at large n in isolation: the per-level
// label compaction (ComposeLabelsInto), the palette-merge arithmetic and
// the reduction-scratch layout pass - everything the orchestrator does
// between vertex-program runs, as it is actually executed (reused
// buffers, one backing allocation for the snapshots). This closes the
// ROADMAP question of whether the documented central compaction
// dominates at scale: the reported ns/op spans all NumLevels(degBound)
// levels of an n-vertex instance, so ns/op / n / levels is the per-
// vertex-level bookkeeping cost to compare against the vertex-program
// cost of the same levels.
func BenchmarkDeltaColorBookkeeping(b *testing.B) {
	const (
		n        = 1 << 20
		degBound = 64
	)
	rng := rand.New(rand.NewSource(430))
	numLevels := NumLevels(degBound)
	// Synthetic per-level split colorings with realistic class counts
	// (a defective split produces O(1) classes per parent class).
	splits := make([][]int, numLevels)
	for i := range splits {
		splits[i] = make([]int, n)
		for v := range splits[i] {
			splits[i][v] = rng.Intn(9)
		}
	}
	colors := make([]int, n)
	for v := range colors {
		colors[v] = rng.Intn(degBound + 1)
	}

	labels := make([]int, n)
	merged := make([]int, n)
	composeIDs := make(map[[2]int]int, n)
	backing := make([]int, 2*numLevels*n)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(labels)
		spare := backing
		palette := degBound + 1
		// Top-down: snapshot labels, compose with the split coloring.
		for _, classColor := range splits {
			snap := spare[:n:n]
			spare = spare[n:]
			copy(snap, labels)
			dist.ComposeLabelsInto(labels, labels, classColor, composeIDs)
		}
		// Bottom-up: the palette-merge arithmetic before each reduction.
		for lv := numLevels - 1; lv >= 0; lv-- {
			classColor := splits[lv]
			for v := 0; v < n; v++ {
				merged[v] = classColor[v]*palette + colors[v]
			}
			palette += 2
		}
	}
}
