package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestLegalColoringBatchShadowsBoxed is the pipeline-level golden: the
// full Legal-Coloring stack (H-partition, partial orientation with
// per-level defective recoloring, Simple-Arbdefective, final complete
// orientation and wait-for-parents sweep) must reproduce bit for bit the
// colors, palettes, iterations, rounds and message counts below. The test
// used to run the pipeline on the batch transport and on the boxed []any
// plane and compare them; the boxed plane is gone, and what it produced
// on these instances is frozen here.
func TestLegalColoringBatchShadowsBoxed(t *testing.T) {
	for _, want := range []struct {
		a, palette, iterations int
		g                      golden
	}{
		{2, 5, 0, golden{2, 0x89199bbb0ec6e985, 17, 26122}},
		{8, 150, 2, golden{8, 0xbe9688c5f99e75b3, 50, 101179}},
		{16, 2410, 4, golden{16, 0x9ef68d5a80253364, 85, 209965}},
	} {
		s := Sizes{N: 1500, Seed: 1}
		g, net := s.forestNet(want.a, 9000+int64(want.a))
		res, err := core.LegalColoring(net, core.Config{Arboricity: want.a, P: 4})
		if err != nil {
			t.Fatalf("a=%d: %v", want.a, err)
		}
		if err := g.CheckLegalColoring(res.Colors); err != nil {
			t.Fatalf("a=%d: %v", want.a, err)
		}
		checkGolden(t, "legal-coloring", want.g, res.Colors, res.Tally.Rounds(), res.Tally.Messages())
		if res.Palette != want.palette || res.Iterations != want.iterations {
			t.Errorf("a=%d: palette/iterations %d/%d, frozen boxed run had %d/%d",
				want.a, res.Palette, res.Iterations, want.palette, want.iterations)
		}
	}
}

// TestScaleRunShadow runs the scale harness at test size and pins its
// record to the frozen values the boxed []any plane produced on this
// instance before it was deleted; it also covers the generate ->
// WriteBinary -> OpenBinary round trip inside scaleGraph.
func TestScaleRunShadow(t *testing.T) {
	res, err := ScaleRun(ScaleOptions{N: 4000, Arboricity: 8, P: 4, Seed: 3, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Record
	if !rec.OK {
		t.Fatalf("scale run not legal: %s", rec.Note)
	}
	checkGolden(t, "scale", golden{8, 0x853af1725badf953, 52, 271170}, res.Colors, rec.Rounds, rec.Messages)
	const workload = "forest-union n=4000 m=31939"
	if rec.Colors != 16 || rec.Measured != 160 || rec.Workload != workload {
		t.Errorf("record colors/palette/workload %d/%v/%q, frozen boxed run had 16/160/%q",
			rec.Colors, rec.Measured, rec.Workload, workload)
	}
	if rec.Mallocs == 0 || rec.AllocsPerVertex <= 0 {
		t.Error("scale record missing allocation accounting")
	}
	// The word plane must keep the run GC-quiet: even at this small n
	// (where fixed per-run costs are amortized over few vertices) it stays
	// well below one allocation per vertex, against the ~70 the boxed
	// plane made. The bound catches any reintroduced per-vertex boxing
	// without flaking on runtime noise.
	budget := 2.0
	if raceEnabled {
		// The race runtime deliberately drops sync.Pool puts, so the
		// pooled per-step scratch re-allocates a few times per vertex.
		budget = 10
	}
	if rec.AllocsPerVertex > budget {
		t.Errorf("word plane allocates %.2f allocs/vertex (budget %.2f) - per-vertex boxing crept back",
			rec.AllocsPerVertex, budget)
	}
}

// TestScaleRunWorkerCountsAgree pins the determinism contract of the
// worker knob: the same scale instance run sequentially, with a pinned
// 4-worker pool, and with the auto heuristic must produce bit-for-bit
// identical colorings and counters - the property the -scale-procs
// speedup sweep relies on to make its curve comparable point to point.
func TestScaleRunWorkerCountsAgree(t *testing.T) {
	base := ScaleOptions{N: 3000, Arboricity: 6, P: 4, Seed: 11, Dir: t.TempDir()}
	var first *ScaleResult
	for _, w := range []int{1, 4, 0} {
		opt := base
		opt.Workers = w
		res, err := ScaleRun(opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !res.Record.OK {
			t.Fatalf("workers=%d: illegal coloring: %s", w, res.Record.Note)
		}
		if w > 0 && res.Record.Workers != w {
			t.Errorf("workers=%d recorded as %d", w, res.Record.Workers)
		}
		if res.Record.GoMaxProcs < 1 {
			t.Errorf("workers=%d: gomaxprocs %d not recorded", w, res.Record.GoMaxProcs)
		}
		if first == nil {
			first = res
			continue
		}
		if !reflect.DeepEqual(res.Colors, first.Colors) {
			t.Errorf("workers=%d: colors diverge from workers=1", w)
		}
		if res.Record.Rounds != first.Record.Rounds || res.Record.Messages != first.Record.Messages {
			t.Errorf("workers=%d: rounds/messages diverge: %d/%d vs %d/%d",
				w, res.Record.Rounds, res.Record.Messages, first.Record.Rounds, first.Record.Messages)
		}
	}
}

// TestScaleSweepMatchesScaleRun pins the sweep harness to the plain
// run: ScaleSweep prepares the instance once and reuses it across
// points, which must not change the instance - every point has to
// reproduce a plain ScaleRun with the same options bit for bit.
func TestScaleSweepMatchesScaleRun(t *testing.T) {
	base := ScaleOptions{N: 2500, Arboricity: 6, P: 4, Seed: 21, Dir: t.TempDir()}
	plain, err := ScaleRun(base)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := ScaleSweep(base, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 {
		t.Fatalf("sweep returned %d results, want 2", len(sweep))
	}
	for _, res := range sweep {
		if !reflect.DeepEqual(res.Colors, plain.Colors) {
			t.Errorf("workers=%d: sweep coloring diverges from plain ScaleRun", res.Record.Workers)
		}
		if res.Record.Rounds != plain.Record.Rounds || res.Record.Messages != plain.Record.Messages {
			t.Errorf("workers=%d: rounds/messages diverge: %d/%d vs %d/%d", res.Record.Workers,
				res.Record.Rounds, res.Record.Messages, plain.Record.Rounds, plain.Record.Messages)
		}
	}
	if sweep[0].Record.GoMaxProcs != 1 || sweep[1].Record.GoMaxProcs != 2 {
		t.Errorf("sweep gomaxprocs recorded as %d,%d, want 1,2",
			sweep[0].Record.GoMaxProcs, sweep[1].Record.GoMaxProcs)
	}
}

// TestScaleShardSweepMatchesScaleRun pins the shard-count curve to the
// flat harness: every point of a ScaleShardSweep (flat baseline at
// count 1, a sharded engine view above it, including a sharded run
// through ScaleRun's streaming-load path) must reproduce the plain
// flat ScaleRun bit for bit, and records must carry the shard count.
func TestScaleShardSweepMatchesScaleRun(t *testing.T) {
	base := ScaleOptions{N: 2500, Arboricity: 6, P: 4, Seed: 21, Dir: t.TempDir()}
	plain, err := ScaleRun(base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Record.Shards != 0 {
		t.Errorf("flat run recorded shards=%d, want omitted (0)", plain.Record.Shards)
	}
	counts := []int{1, 2, 4, graph.AutoSharding(base.N).NumShards()}
	sweep, err := ScaleShardSweep(base, counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != len(counts) {
		t.Fatalf("sweep returned %d results, want %d", len(sweep), len(counts))
	}
	for i, res := range sweep {
		if res.Record.Shards != counts[i] {
			t.Errorf("point %d recorded shards=%d, want %d", i, res.Record.Shards, counts[i])
		}
		if !reflect.DeepEqual(res.Colors, plain.Colors) {
			t.Errorf("shards=%d: sweep coloring diverges from plain ScaleRun", counts[i])
		}
		if res.Record.Rounds != plain.Record.Rounds || res.Record.Messages != plain.Record.Messages {
			t.Errorf("shards=%d: rounds/messages diverge: %d/%d vs %d/%d", counts[i],
				res.Record.Rounds, res.Record.Messages, plain.Record.Rounds, plain.Record.Messages)
		}
	}

	// A sharded ScaleRun takes the streaming per-shard load path for the
	// generated binary and must still match the flat run exactly.
	shardedOpt := base
	shardedOpt.Shards = 3
	sharded, err := ScaleRun(shardedOpt)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Record.Shards != 3 {
		t.Errorf("sharded run recorded shards=%d, want 3", sharded.Record.Shards)
	}
	if !reflect.DeepEqual(sharded.Colors, plain.Colors) ||
		sharded.Record.Rounds != plain.Record.Rounds ||
		sharded.Record.Messages != plain.Record.Messages {
		t.Errorf("sharded ScaleRun diverges from flat (rounds/messages %d/%d vs %d/%d)",
			sharded.Record.Rounds, sharded.Record.Messages, plain.Record.Rounds, plain.Record.Messages)
	}
}

// TestScaleRunFromPrebuiltGraph exercises the -graph path of the scale
// harness against a graphgen-style binary file.
func TestScaleRunFromPrebuiltGraph(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pre.bin")
	s := Sizes{N: 2500, Seed: 5}
	g, _ := s.forestNet(4, 77)
	writeBinaryFile(t, g, path)

	res, err := ScaleRun(ScaleOptions{GraphPath: path, Arboricity: 4, P: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Record.OK {
		t.Errorf("prebuilt scale run not legal: %+v", res.Record)
	}
	if res.Record.N != g.N() {
		t.Errorf("recorded n=%d, want %d", res.Record.N, g.N())
	}
}

func writeBinaryFile(t *testing.T, g *graph.Graph, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
