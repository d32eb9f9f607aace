package field

import (
	"math/rand"
	"sync"
	"testing"
)

// TestBatchEvalMatchesScalarEval is the property test pinning the batch
// kernel to the scalar reference: over randomized (q, d, x) - primes
// across the schedule range, degrees through the finite-difference
// ladder, indices inside and far beyond q^(d+1) - BatchEval must equal
// the Horner reference at every point, for full rows and clamped
// prefixes.
func TestBatchEvalMatchesScalarEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	primes := []int{2, 3, 5, 7, 11, 23, 59, 101, 127, 1009}
	for _, q := range primes {
		for d := 0; d <= 6; d++ {
			fam, err := NewFamilySized(q, d, 0) // empty table
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]int, q)
			for trial := 0; trial < 30; trial++ {
				var x int
				switch trial % 3 {
				case 0:
					x = rng.Intn(q * q) // small indices
				case 1:
					x = rng.Intn(1 << 30) // far past q^(d+1): digit-wrap contract
				default:
					x = fam.Size() - 1 - rng.Intn(min(fam.Size(), 64))
				}
				if x < 0 {
					x = 0
				}
				run := dst[:1+rng.Intn(q)]
				BatchEval(q, d, x, run)
				for alpha, got := range run {
					if want := fam.Eval(x, alpha); got != want {
						t.Fatalf("BatchEval(q=%d,d=%d,x=%d)[%d] = %d, Eval = %d", q, d, x, alpha, got, want)
					}
				}
			}
		}
	}
}

// TestFillRowsMatchesScalarEval pins the contiguous-run kernel,
// including odometer carries across digit boundaries (x0 straddling
// powers of q) and wrap past q^(d+1).
func TestFillRowsMatchesScalarEval(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, q := range []int{2, 3, 7, 23, 101} {
		for d := 0; d <= 4; d++ {
			fam, err := NewFamilySized(q, d, 0)
			if err != nil {
				t.Fatal(err)
			}
			starts := []int{0, q - 1, q*q - 2, fam.Size() - 2, rng.Intn(1 << 20)}
			for _, x0 := range starts {
				if x0 < 0 {
					x0 = 0
				}
				k := 1 + rng.Intn(5)
				rows := make([]int, k*q)
				FillRows(q, d, x0, rows)
				for r := 0; r < k; r++ {
					for alpha := 0; alpha < q; alpha++ {
						if got, want := rows[r*q+alpha], fam.Eval(x0+r, alpha); got != want {
							t.Fatalf("FillRows(q=%d,d=%d,x0=%d) row %d alpha %d: got %d, want %d", q, d, x0, r, alpha, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRowBlockGrowthBoundaries walks a family through EnsureRows growth
// and checks, at every boundary, that Row answers indices below Cached
// from the table and above it via the kernel - both equal to Eval - and
// that earlier snapshots stay valid after later growth.
func TestRowBlockGrowthBoundaries(t *testing.T) {
	q, d := 23, 2
	fam, err := NewFamilySized(q, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]int, q)
	var snaps []RowBlock
	for _, m := range []int{4, 9, 10, 100, 1000, fam.Size() + 5} {
		b := fam.Block(m)
		snaps = append(snaps, b)
		wantCached := min(m, fam.Size())
		if c := maxRowTableGrowInts / q; wantCached > c {
			wantCached = c
		}
		if b.Cached() < wantCached {
			t.Fatalf("Block(%d).Cached() = %d, want >= %d", m, b.Cached(), wantCached)
		}
		for _, x := range []int{0, b.Cached() - 1, b.Cached(), b.Cached() + 7, fam.Size() - 1} {
			if x < 0 {
				continue
			}
			row := b.Row(x, scratch)
			for alpha := 0; alpha < q; alpha++ {
				if want := fam.Eval(x, alpha); row[alpha] != want {
					t.Fatalf("Block(%d).Row(%d)[%d] = %d, want %d", m, x, alpha, row[alpha], want)
				}
			}
		}
	}
	// Growth must never invalidate an earlier snapshot.
	for _, b := range snaps {
		row := b.Row(1, scratch)
		for alpha := 0; alpha < q; alpha++ {
			if want := fam.Eval(1, alpha); row[alpha] != want {
				t.Fatalf("stale snapshot Row(1)[%d] = %d, want %d", alpha, row[alpha], want)
			}
		}
	}
}

// TestAgreeRunMatchesNaive pins the grouped run walker (multiplicity
// grouping, skip color, mixed table/kernel rows) against a per-entry
// reference, and its counts: one per distinct row, classified by the
// path that materialized it.
func TestAgreeRunMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	q, d := 23, 2
	fam, err := NewFamilySized(q, d, 40) // partial table: mixed hit/batched
	if err != nil {
		t.Fatal(err)
	}
	b := fam.Block(-1)
	scratch := make([]int, q)
	rowScratch := make([]int, q)
	for trial := 0; trial < 100; trial++ {
		x := rng.Intn(fam.Size())
		ys := make([]int, rng.Intn(20))
		for i := range ys {
			if rng.Intn(4) == 0 {
				ys[i] = x
			} else {
				ys[i] = rng.Intn(fam.Size())
			}
		}
		sortInts(ys)
		ref := b.Row(x, scratch)
		got := make([]int, q)
		var ec EvalCounters
		b.AgreeRun(got, ref, ys, x, rowScratch, &ec)
		want := make([]int, q)
		var hits, batched int64
		for i, y := range ys {
			if y == x {
				continue
			}
			if i == 0 || ys[i-1] != y {
				if y < b.Cached() {
					hits++
				} else {
					batched++
				}
			}
			for alpha := 0; alpha < q; alpha++ {
				if fam.Eval(y, alpha) == fam.Eval(x, alpha) {
					want[alpha]++
				}
			}
		}
		for alpha := range want {
			if got[alpha] != want[alpha] {
				t.Fatalf("x=%d ys=%v: agrees[%d] = %d, want %d", x, ys, alpha, got[alpha], want[alpha])
			}
		}
		if ec.Hits() != hits || ec.Batched() != batched {
			t.Fatalf("x=%d ys=%v: counted %d hits / %d batched, want %d / %d (one per distinct row)",
				x, ys, ec.Hits(), ec.Batched(), hits, batched)
		}
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestBatchKernelZeroAllocs asserts the kernel path allocates nothing:
// Row (both sides of the cache boundary), BatchEval and AgreeRun run on
// caller scratch only.
func TestBatchKernelZeroAllocs(t *testing.T) {
	q, d := 59, 2
	fam, err := NewFamilySized(q, d, 100)
	if err != nil {
		t.Fatal(err)
	}
	b := fam.Block(-1)
	scratch := make([]int, q)
	rowScratch := make([]int, q)
	agrees := make([]int, q)
	ys := []int{3, 3, 57, 140, 3000, 3000, 40000}
	ref := b.Row(7, scratch)
	allocs := testing.AllocsPerRun(100, func() {
		BatchEval(q, d, 123456, rowScratch)
		_ = b.Row(99, rowScratch)
		_ = b.Row(50000, rowScratch)
		b.AgreeRun(agrees, ref, ys, 3, rowScratch, nil)
	})
	if allocs != 0 {
		t.Errorf("batch kernel: %v allocs/op, want 0", allocs)
	}
}

// TestRowBlockConcurrentGrowth hammers Block/EnsureRows/Row from many
// goroutines (run under -race): snapshots must stay internally
// consistent while the shared table grows underneath them.
func TestRowBlockConcurrentGrowth(t *testing.T) {
	q, d := 31, 2
	fam, err := NewFamilySized(q, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			scratch := make([]int, q)
			for i := 0; i < 200; i++ {
				b := fam.Block(rng.Intn(fam.Size()))
				x := rng.Intn(fam.Size())
				row := b.Row(x, scratch)
				for alpha := 0; alpha < q; alpha++ {
					if want := fam.Eval(x, alpha); row[alpha] != want {
						t.Errorf("concurrent Row(%d)[%d] = %d, want %d", x, alpha, row[alpha], want)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
