package field

import (
	"sync"
	"testing"
)

// TestEnsureRowsPaletteSizing pins the palette-driven row-table sizing:
// the table covers exactly the requested bound (not the fixed
// construction cap), never shrinks, and saturates at the growth ceiling.
func TestEnsureRowsPaletteSizing(t *testing.T) {
	const q = 2003
	fam, err := NewFamilySized(q, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if fam.RowsCached() != 500 {
		t.Fatalf("palette 500 sized table to %d rows", fam.RowsCached())
	}
	snapshot := fam.Block(-1)

	// A smaller palette never shrinks the table.
	if got := fam.EnsureRows(200); got != 500 {
		t.Fatalf("EnsureRows(200) = %d", got)
	}
	if fam.RowsCached() != 500 {
		t.Fatalf("palette 200 shrank table to %d rows", fam.RowsCached())
	}

	// Growth extends the table; old and new rows match Eval.
	if got := fam.EnsureRows(700); got != 700 {
		t.Fatalf("EnsureRows(700) = %d", got)
	}
	grown := fam.Block(-1)
	scratch := make([]int, q)
	for _, x := range []int{0, 1, 499, 500, 699} {
		row := grown.Row(x, scratch)
		for alpha := 0; alpha < q; alpha++ {
			if row[alpha] != fam.Eval(x, alpha) {
				t.Fatalf("grown Row(%d)[%d] mismatch", x, alpha)
			}
		}
	}
	// The pre-growth snapshot stays a valid (smaller) table.
	if snapshot.Cached() != 500 || len(snapshot.rows) != 500*q {
		t.Fatalf("pre-growth snapshot covers %d rows in %d ints, want 500 in %d",
			snapshot.Cached(), len(snapshot.rows), 500*q)
	}

	// An over-large palette saturates at the growth ceiling, which beats
	// the default construction cap.
	if got := fam.EnsureRows(1 << 30); got != maxRowTableGrowInts/q {
		t.Fatalf("EnsureRows(1<<30) = %d, want ceiling %d", got, maxRowTableGrowInts/q)
	}
	if fam.RowsCached() <= maxRowTableInts/q {
		t.Fatalf("growth ceiling %d does not exceed the construction cap %d",
			fam.RowsCached(), maxRowTableInts/q)
	}
}

// TestNewFamilySizedBounds pins the construction-time sizing: the palette
// bound wins below the ceiling, the family size wins below the palette,
// and m < 0 falls back to the default cap.
func TestNewFamilySizedBounds(t *testing.T) {
	small, err := NewFamilySized(7, 1, 1000) // size 49 < palette
	if err != nil {
		t.Fatal(err)
	}
	if small.RowsCached() != small.Size() {
		t.Fatalf("small family cached %d of %d", small.RowsCached(), small.Size())
	}
	sized, err := NewFamilySized(1009, 1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if sized.RowsCached() != 300 {
		t.Fatalf("palette 300 sized table to %d rows", sized.RowsCached())
	}
	def, err := NewFamilySized(1009, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if def.RowsCached() != maxRowTableInts/1009 {
		t.Fatalf("default sizing gave %d rows, want %d", def.RowsCached(), maxRowTableInts/1009)
	}
}

// TestEnsureRowsConcurrent hammers growth and reads together (run with
// -race): every reader must see a consistent snapshot and the final
// table must cover the largest requested palette.
func TestEnsureRowsConcurrent(t *testing.T) {
	const q = 307
	fam, err := NewFamilySized(q, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for m := 32; m <= 4096; m *= 2 {
				fam.EnsureRows(m + i)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]int, q)
			for x := 0; x < 5000; x += 7 {
				b := fam.Block(-1)
				if b.Row(x, scratch)[1] != fam.Eval(x, 1) {
					t.Errorf("Row(%d) inconsistent during growth", x)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fam.RowsCached() < 4099 {
		t.Fatalf("final table covers %d rows, want >= 4099", fam.RowsCached())
	}
}
