package field

import (
	"sync"
	"testing"
)

// TestEvalCountersClassification pins CountRow against RowBlock.Row's
// own criterion: x < Cached is a table hit, anything else a batched
// kernel evaluation. A nil counter must be a safe no-op.
func TestEvalCountersClassification(t *testing.T) {
	// A first-step-sized family whose row table is partial.
	fam, err := Families(101, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := fam.Block(-1)
	if b.Cached() >= fam.Size() {
		t.Skipf("family q=101 d=2 fully cached; beyond-table path unreachable")
	}
	var c EvalCounters
	c.CountRow(b.Cached(), 0)
	c.CountRow(b.Cached(), b.Cached()-1)
	c.CountRow(b.Cached(), b.Cached())
	c.CountRow(b.Cached(), fam.Size()-1)
	if c.Hits() != 2 || c.Batched() != 2 {
		t.Fatalf("hits=%d batched=%d, want 2/2", c.Hits(), c.Batched())
	}
	var nilC *EvalCounters
	nilC.CountRow(b.Cached(), 0) // must not panic
	if nilC.Hits() != 0 || nilC.Batched() != 0 {
		t.Fatal("nil counter reported counts")
	}
}

// TestEvalCountersPaletteHitRate pins CountRow's row-surface
// classification on palette-sized row tables: counting every index a
// palette bound m covers yields hit rate 1 on a family sized to m,
// while the same workload on a default-cap family of comparable size
// batch-evaluates past its fixed table.
func TestEvalCountersPaletteHitRate(t *testing.T) {
	const palette = 5000
	sized, err := NewFamilySized(1013, 1, palette)
	if err != nil {
		t.Fatal(err)
	}
	if sized.RowsCached() != palette {
		t.Fatalf("palette-sized table covers %d rows, want %d", sized.RowsCached(), palette)
	}
	var c EvalCounters
	cached := sized.RowsCached()
	for x := 0; x < palette; x++ {
		c.CountRow(cached, x)
	}
	stat := EvalStat{Hits: c.Hits(), Batched: c.Batched()}
	if stat.Batched != 0 || stat.HitRate() != 1 {
		t.Fatalf("palette-sized family: %d batched, hit rate %v; want 0 / 1",
			stat.Batched, stat.HitRate())
	}

	def, err := Families(1019, 1) // fresh key, default construction cap
	if err != nil {
		t.Fatal(err)
	}
	if def.RowsCached() >= palette {
		t.Fatalf("default table covers %d rows; beyond-table regime unreachable", def.RowsCached())
	}
	var d EvalCounters
	for x := 0; x < palette; x++ {
		d.CountRow(def.RowsCached(), x)
	}
	if d.Hits() != int64(def.RowsCached()) || d.Batched() != int64(palette-def.RowsCached()) {
		t.Fatalf("default-cap family hits=%d batched=%d, want %d/%d",
			d.Hits(), d.Batched(), def.RowsCached(), palette-def.RowsCached())
	}
}

// TestEvalCountersConcurrent pins exactness under concurrency (run with
// -race): N goroutines of K counts each must sum to exactly N*K.
func TestEvalCountersConcurrent(t *testing.T) {
	fam, err := Families(23, 1)
	if err != nil {
		t.Fatal(err)
	}
	cached := fam.RowsCached()
	var c EvalCounters
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.CountRow(cached, (seed*per+j)%(2*cached))
			}
		}(i)
	}
	wg.Wait()
	if total := c.Hits() + c.Batched(); total != goroutines*per {
		t.Fatalf("total %d, want %d", total, goroutines*per)
	}
}

// TestEvalStatsRegistry pins the process-wide registry: disabled lookups
// return nil, enabled lookups share per-key counters, snapshots sort by
// (step, q, d), reset drops everything.
func TestEvalStatsRegistry(t *testing.T) {
	defer func() {
		SetEvalStats(false)
		ResetEvalStats()
	}()
	SetEvalStats(false)
	ResetEvalStats()
	if c := StepCounters(0, 23, 1); c != nil {
		t.Fatal("disabled StepCounters returned a counter")
	}
	SetEvalStats(true)
	if !EvalStatsEnabled() {
		t.Fatal("enable did not stick")
	}
	a := StepCounters(1, 23, 1)
	b := StepCounters(1, 23, 1)
	if a == nil || a != b {
		t.Fatal("same key resolved to different counters")
	}
	other := StepCounters(0, 29, 2)
	a.CountRow(23*23, 0)
	a.CountRow(23*23, 1)
	snap := EvalStatsSnapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	if snap[0].Step != 0 || snap[0].Q != 29 || snap[1].Step != 1 || snap[1].Q != 23 {
		t.Fatalf("snapshot not sorted by (step, q, d): %+v", snap)
	}
	if snap[1].Hits != 2 || snap[1].Total() != 2 {
		t.Fatalf("counted entry %+v, want 2 hits", snap[1])
	}
	if snap[0].Total() != 0 || snap[0].HitRate() != 1 {
		t.Fatalf("untouched entry %+v, want total 0 / hit-rate 1", snap[0])
	}
	_ = other
	ResetEvalStats()
	if len(EvalStatsSnapshot()) != 0 {
		t.Fatal("reset left counters behind")
	}
}
