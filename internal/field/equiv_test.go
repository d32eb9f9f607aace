package field

import (
	"sync"
	"testing"
)

// Eval returns phi_x(alpha) by scalar Horner evaluation: the reference
// the batch kernel (BatchEval, FillRows, RowBlock.Row) is tested
// against. x is read modulo q^(D+1) - only the D+1 low-order base-q
// digits are the coefficient vector c_0..c_D - and alpha must lie in
// [0, Q()).
func (f *Family) Eval(x, alpha int) int {
	q := f.fp.Q()
	// p = q^k for the largest k <= D with q^k <= x; digits above k are
	// zero (or discarded when x >= q^(D+1)), and leading zeros do not
	// change Horner's accumulation.
	p := 1
	for i := 0; i < f.degree && p <= x/q; i++ {
		p *= q
	}
	// Horner, most significant digit first: acc = acc*alpha + c_i.
	acc := 0
	for ; p > 0; p /= q {
		acc = (acc*alpha + (x/p)%q) % q
	}
	return acc
}

// evalPowerSum is the seed evaluation, preserved verbatim as a second,
// independent reference: it accumulates powers of alpha term by term
// over the base-q digits of x.
func evalPowerSum(q, degree, x, alpha int) int {
	acc := 0
	powAlpha := 1
	for i := 0; i <= degree; i++ {
		c := x % q
		x /= q
		acc = (acc + c*powAlpha) % q
		powAlpha = (powAlpha * alpha) % q
	}
	return acc
}

// TestEvalHornerMatchesPowerSum proves the Horner reference is
// bit-for-bit identical to the seed power accumulation, including for
// indices beyond Size() (both reduce x modulo q^(D+1) per the documented
// index contract).
func TestEvalHornerMatchesPowerSum(t *testing.T) {
	for _, tc := range []struct{ q, d int }{
		{2, 0}, {2, 3}, {5, 1}, {5, 2}, {7, 2}, {11, 3}, {23, 1}, {101, 2},
	} {
		fam, err := NewFamilySized(tc.q, tc.d, 0)
		if err != nil {
			t.Fatal(err)
		}
		size := fam.Size()
		xs := []int{0, 1, tc.q - 1, tc.q, size / 2, size - 1,
			size, size + 1, 3*size + 7, 1 << 40}
		for _, x := range xs {
			for alpha := 0; alpha < tc.q; alpha++ {
				want := evalPowerSum(tc.q, tc.d, x, alpha)
				if got := fam.Eval(x, alpha); got != want {
					t.Fatalf("q=%d d=%d Eval(%d,%d) = %d, power-sum says %d",
						tc.q, tc.d, x, alpha, got, want)
				}
			}
		}
	}
}

// TestEvalNegativeIndexPanics pins the kernels' index contract: a
// negative function index is a caller bug and panics instead of
// evaluating garbage digits.
func TestEvalNegativeIndexPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		eval func()
	}{
		{"BatchEval", func() { BatchEval(7, 2, -1, make([]int, 7)) }},
		{"FillRows", func() { FillRows(7, 2, -1, make([]int, 7)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s at index -1 did not panic", tc.name)
				}
			}()
			tc.eval()
		}()
	}
}

// TestRowViewMatchesRow checks both RowBlock.Row paths - a view into the
// table snapshot and a row batch-evaluated into scratch - against the
// Horner reference row, and that neither allocates.
func TestRowViewMatchesRow(t *testing.T) {
	full, err := NewFamilySized(5, 2, -1) // size 125, fully cached
	if err != nil {
		t.Fatal(err)
	}
	empty, err := NewFamilySized(5, 2, 0) // no table: every row batched
	if err != nil {
		t.Fatal(err)
	}
	hit, miss := full.Block(-1), empty.Block(-1)
	if hit.Cached() != full.Size() || miss.Cached() != 0 {
		t.Fatalf("cached rows %d and %d, want %d and 0", hit.Cached(), miss.Cached(), full.Size())
	}
	scratch := make([]int, full.Q())
	for x := 0; x < full.Size(); x++ {
		for _, b := range []*RowBlock{&hit, &miss} {
			row := b.Row(x, scratch)
			for alpha := range row {
				if want := full.Eval(x, alpha); row[alpha] != want {
					t.Fatalf("cached=%d: Row(%d)[%d] = %d, Horner says %d", b.Cached(), x, alpha, row[alpha], want)
				}
			}
		}
	}
	for _, b := range []*RowBlock{&hit, &miss} {
		if allocs := testing.AllocsPerRun(100, func() { b.Row(7, scratch) }); allocs != 0 {
			t.Errorf("cached=%d: Row allocates %v per run", b.Cached(), allocs)
		}
	}
}

// TestEvalTableLayout checks the snapshot's flattened x*q+alpha layout
// row by row against the Horner reference.
func TestEvalTableLayout(t *testing.T) {
	fam, err := NewFamilySized(7, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	b := fam.Block(-1)
	q := b.Q()
	if len(b.rows) != b.Cached()*q {
		t.Fatalf("table length %d, want %d", len(b.rows), b.Cached()*q)
	}
	for x := 0; x < b.Cached(); x++ {
		for alpha := 0; alpha < q; alpha++ {
			if b.rows[x*q+alpha] != fam.Eval(x, alpha) {
				t.Fatalf("table[%d*q+%d] != Eval", x, alpha)
			}
		}
	}
}

// TestRowTableCapped checks large families keep a partial table and
// batch-evaluate correctly past it.
func TestRowTableCapped(t *testing.T) {
	fam, err := NewFamilySized(1009, 1, -1) // size 1009^2 ~ 1M; table must be capped
	if err != nil {
		t.Fatal(err)
	}
	b := fam.Block(-1)
	if b.Cached() >= fam.Size() {
		t.Fatalf("expected capped table, got %d of %d", b.Cached(), fam.Size())
	}
	if got, want := len(b.rows), b.Cached()*b.Q(); got != want {
		t.Fatalf("table length %d, want %d", got, want)
	}
	scratch := make([]int, b.Q())
	x := b.Cached() + 12345
	row := b.Row(x, scratch)
	for alpha := 0; alpha < b.Q(); alpha++ {
		if row[alpha] != fam.Eval(x, alpha) {
			t.Fatalf("beyond-table Row(%d)[%d] mismatch", x, alpha)
		}
	}
}

// TestFamiliesMemoized checks the process-wide cache returns one
// canonical instance per parameter pair, also under concurrency.
func TestFamiliesMemoized(t *testing.T) {
	a, err := Families(13, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Families(13, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Families(13,2) returned distinct instances")
	}
	if _, err := Families(10, 1); err == nil {
		t.Error("Families(10,1) accepted a composite modulus")
	}

	const workers = 8
	got := make([]*Family, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := Families(9973, 1)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = f
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Families calls returned distinct instances")
		}
	}
}
