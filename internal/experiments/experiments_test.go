package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// smallSizes keeps the full-suite test fast.
var smallSizes = Sizes{N: 500, Seed: 3}

// rowsGolden holds every row of All(smallSizes) as `colorbench -n 500
// -seed 3 -json` prints it, with wall_ms zeroed: the suite's output
// contract, checked row by row.
const rowsGolden = "testdata/rows-n500-seed3.jsonl"

func TestAllExperimentsPassBounds(t *testing.T) {
	rows, err := All(smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 50 {
		t.Fatalf("only %d rows; expected the full suite", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("experiment %s %s failed: measured %.1f bound %.1f (%s)",
				r.Exp, r.Params, r.Measured, r.Bound, r.Metric)
		}
		if r.Bound > 0 && r.Measured > r.Bound {
			t.Errorf("experiment %s %s exceeds bound: %.1f > %.1f",
				r.Exp, r.Params, r.Measured, r.Bound)
		}
	}
	recs := make([]Record, len(rows))
	for i, r := range rows {
		recs[i] = NewRecord(r, 0, smallSizes)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(rowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("%d rows, %s has %d", len(got), rowsGolden, len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("row %d differs from %s:\n got  %s\n want %s", i+1, rowsGolden, got[i], want[i])
		}
	}
}

func TestTableRendering(t *testing.T) {
	rows := []Row{
		{Exp: "E01", Workload: "w", Params: "p", Colors: 3, Rounds: 7,
			Measured: 1.5, Bound: 2, Metric: "m", OK: true},
		{Exp: "E02", Workload: "w2", Params: "p2", Measured: 9, Metric: "m2", OK: false},
	}
	out := Table(rows)
	if !strings.Contains(out, "E01") || !strings.Contains(out, "E02") {
		t.Error("rows missing from table")
	}
	if !strings.Contains(out, "NO") {
		t.Error("failed row not flagged")
	}
	if !strings.Contains(out, "2.0") {
		t.Error("bound not rendered")
	}
	if !strings.Contains(out, " - ") && !strings.Contains(out, "| -") && !strings.Contains(out, "-          ") {
		t.Error("missing bound not rendered as '-'")
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Deterministic algorithms + seeded RNG: identical rows across runs.
	a, err := E11LegalColoring(smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := E11LegalColoring(smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("row count differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAblationShowsPartialFaster(t *testing.T) {
	rows, err := E20AblationOrientation(Sizes{N: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 variants, got %d", len(rows))
	}
	complete, partial := rows[0], rows[1]
	if partial.Rounds >= complete.Rounds {
		t.Errorf("partial orientation (%d rounds) not faster than complete (%d rounds) - the Section 3 speedup is missing",
			partial.Rounds, complete.Rounds)
	}
}
