package field

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestIsPrimeSmall(t *testing.T) {
	primes := map[int]bool{
		2: true, 3: true, 5: true, 7: true, 11: true, 13: true,
		17: true, 19: true, 23: true, 97: true, 101: true, 7919: true,
	}
	composites := []int{-7, -1, 0, 1, 4, 6, 8, 9, 10, 12, 15, 21, 25, 49, 91, 7917, 7921}
	for p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false, want true", p)
		}
	}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true, want false", c)
		}
	}
}

func TestIsPrimeAgainstSieve(t *testing.T) {
	const limit = 5000
	sieve := make([]bool, limit)
	for i := range sieve {
		sieve[i] = i >= 2
	}
	for i := 2; i*i < limit; i++ {
		if sieve[i] {
			for j := i * i; j < limit; j += i {
				sieve[j] = false
			}
		}
	}
	for n := 0; n < limit; n++ {
		if IsPrime(n) != sieve[n] {
			t.Fatalf("IsPrime(%d) = %v, sieve says %v", n, IsPrime(n), sieve[n])
		}
	}
}

func TestNextPrime(t *testing.T) {
	tests := []struct{ in, want int }{
		{-5, 2}, {0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {14, 17},
		{7907, 7907}, {7908, 7919},
	}
	for _, tc := range tests {
		if got := NextPrime(tc.in); got != tc.want {
			t.Errorf("NextPrime(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestNewFpRejectsComposite(t *testing.T) {
	if _, err := NewFp(10); err == nil {
		t.Fatal("NewFp(10) succeeded, want error")
	}
	if _, err := NewFp(1); err == nil {
		t.Fatal("NewFp(1) succeeded, want error")
	}
}

// splitBlock returns the (q, d) family with a row table of exactly m
// rows, and its snapshot: indices below m are table hits and the rest
// are batch-evaluated, the two paths a recoloring step reads rows
// through.
func splitBlock(t *testing.T, q, d, m int) (*Family, RowBlock) {
	t.Helper()
	fam, err := NewFamilySized(q, d, m)
	if err != nil {
		t.Fatal(err)
	}
	b := fam.Block(-1)
	if b.Cached() != m {
		t.Fatalf("q=%d d=%d: table covers %d rows, want %d", q, d, b.Cached(), m)
	}
	return fam, b
}

// blockRow returns a copy of row x read through b, checked point by
// point against the Horner reference.
func blockRow(t *testing.T, fam *Family, b *RowBlock, x int) []int {
	t.Helper()
	row := append([]int(nil), b.Row(x, make([]int, b.Q()))...)
	for alpha, v := range row {
		if want := fam.Eval(x, alpha); v != want {
			t.Fatalf("q=%d d=%d cached=%d: Row(%d)[%d] = %d, Horner says %d",
				b.Q(), b.Degree(), b.Cached(), x, alpha, v, want)
		}
	}
	return row
}

// pickIndex maps a random r to a function index that is a table hit of
// b when hit is set and a beyond-table index otherwise.
func pickIndex(fam *Family, b *RowBlock, r uint32, hit bool) int {
	if hit {
		return int(r) % b.Cached()
	}
	return b.Cached() + int(r)%(fam.Size()-b.Cached())
}

func TestFamilySizeAndEvalDecoding(t *testing.T) {
	fam, b := splitBlock(t, 5, 2, 50)
	if fam.Size() != 125 {
		t.Fatalf("Size = %d, want 125", fam.Size())
	}
	// Index x = c0 + 5*c1 + 25*c2, phi_x(alpha) = c0 + c1 alpha + c2 alpha^2
	// mod 5. x = 86 = 1 + 5*2 + 25*3 lies beyond the table: at alpha = 2,
	// 1+4+12 = 17 mod 5 = 2. x = 36 = 1 + 5*2 + 25*1 is a table hit:
	// 1+4+4 = 9 mod 5 = 4.
	for _, tc := range []struct{ x, alpha, want int }{{86, 2, 2}, {36, 2, 4}} {
		if got := blockRow(t, fam, &b, tc.x)[tc.alpha]; got != tc.want {
			t.Errorf("Row(%d)[%d] = %d, want %d", tc.x, tc.alpha, got, tc.want)
		}
	}
	// Only the d+1 low-order digits are read: x and x + q^(d+1) index the
	// same function.
	if a, w := blockRow(t, fam, &b, 36), blockRow(t, fam, &b, 36+fam.Size()); !slices.Equal(a, w) {
		t.Errorf("Row(36) = %v, Row(36+Size) = %v", a, w)
	}
}

// TestFamilyPairwiseAgreement checks Lemma 5.1's agreement bound
// exhaustively on a small family, through both row paths: two distinct
// polynomials of degree <= d agree on at most d points.
func TestFamilyPairwiseAgreement(t *testing.T) {
	fam, b := splitBlock(t, 7, 2, 100)
	n := fam.Size() // 343: rows 0..99 from the table, the rest batched
	rows := make([][]int, n)
	for x := 0; x < n; x++ {
		rows[x] = blockRow(t, fam, &b, x)
	}
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			agree := 0
			for alpha := 0; alpha < b.Q(); alpha++ {
				if rows[x][alpha] == rows[y][alpha] {
					agree++
				}
			}
			if agree > b.Degree() {
				t.Fatalf("functions %d,%d agree on %d points, bound %d", x, y, agree, b.Degree())
			}
		}
	}
}

// TestFamilyDistinctFunctions checks that for d < q the q^(d+1)
// indices of a family are q^(d+1) distinct functions, reading rows
// through both paths.
func TestFamilyDistinctFunctions(t *testing.T) {
	for _, tc := range []struct{ q, d, m int }{{5, 1, 10}, {3, 2, 9}, {2, 1, 2}} {
		fam, b := splitBlock(t, tc.q, tc.d, tc.m)
		seen := make(map[string]int, fam.Size())
		for x := 0; x < fam.Size(); x++ {
			key := fmt.Sprint(blockRow(t, fam, &b, x))
			if prev, dup := seen[key]; dup {
				t.Fatalf("q=%d d=%d: indices %d and %d map to the same function", tc.q, tc.d, prev, x)
			}
			seen[key] = x
		}
	}
}

func TestFamilyEvalInRangeQuick(t *testing.T) {
	fam, b := splitBlock(t, 11, 3, 200)
	scratch := make([]int, b.Q())
	prop := func(r uint32, alpha uint8, hit bool) bool {
		x := pickIndex(fam, &b, r, hit)
		ai := int(alpha) % b.Q()
		v := b.Row(x, scratch)[ai]
		return v >= 0 && v < b.Q() && v == fam.Eval(x, ai)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFamilyAgreementQuick(t *testing.T) {
	// Randomized agreement check on a larger family than the exhaustive
	// test, pairing table hits with beyond-table rows.
	fam, b := splitBlock(t, 31, 3, 500)
	prop := func(ra, rb uint32, hitA, hitB bool) bool {
		x := pickIndex(fam, &b, ra, hitA)
		y := pickIndex(fam, &b, rb, hitB)
		if x == y {
			return true
		}
		rx, ry := blockRow(t, fam, &b, x), blockRow(t, fam, &b, y)
		agree := 0
		for alpha := range rx {
			if rx[alpha] == ry[alpha] {
				agree++
			}
		}
		return agree <= b.Degree()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFamilyDegreeRange pins the degrees a family accepts: [0,
// maxBatchDegree], the range the batch kernel evaluates. The family
// constructors and the agreement kernel reject a degree outside it, and
// rows at the limit still match Horner.
func TestFamilyDegreeRange(t *testing.T) {
	for _, d := range []int{-1, maxBatchDegree + 1} {
		if _, err := NewFamilySized(5, d, 10); err == nil {
			t.Errorf("NewFamilySized(5, %d, 10) accepted", d)
		}
		if _, err := Families(5, d); err == nil {
			t.Errorf("Families(5, %d) accepted", d)
		}
		if _, err := NewRoots(5, d); err == nil {
			t.Errorf("NewRoots(5, %d) accepted", d)
		}
	}
	fam, b := splitBlock(t, 5, maxBatchDegree, 3)
	for _, x := range []int{0, 2, 3, 42, 1 << 40} {
		blockRow(t, fam, &b, x)
	}
}
