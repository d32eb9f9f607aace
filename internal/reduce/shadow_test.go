package reduce

import (
	"hash/fnv"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// TestKWBatchShadowsBoxed pins the reduction's delivery timing: the
// fold/renumber schedule is round-sensitive (a message received one round
// late recolors against a stale table), so an exact colors/rounds/messages
// match exercises delivery timing, silence and halting sends. The test
// used to compare the batch run against the boxed []any plane; the boxed
// plane is gone, and what it produced on this instance is frozen below.
func TestKWBatchShadowsBoxed(t *testing.T) {
	g := graph.Grid(12, 9)
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = v // trivial legal n-coloring
	}
	res, err := KW(dist.NewNetwork(g), colors, g.N(), 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegalColoring(res.Colors); err != nil {
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
		wantHash     = 0xd184ed9199658e02
		wantRounds   = 26
		wantMessages = 1192
		wantPeakLive = 108
	)
	if got := h.Sum64(); got != wantHash || res.Rounds != wantRounds || res.Messages != wantMessages || res.PeakLive != wantPeakLive {
		t.Fatalf("got colors %#x rounds=%d messages=%d peak=%d, frozen boxed run had %#x/%d/%d/%d",
			got, res.Rounds, res.Messages, res.PeakLive, uint64(wantHash), wantRounds, wantMessages, wantPeakLive)
	}
}
