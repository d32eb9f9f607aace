package field

import (
	"math/rand"
	"slices"
	"testing"
)

// refRecolor is the row-comparison reference of Roots.Recolor: it
// evaluates phi_x and every phi_y at all q points with the scalar Horner
// Eval, counts per point the entries y != x that agree with phi_x, and
// picks the point with the fewest (lowest on ties). It returns the
// agreement vector and the new color.
func refRecolor(fam *Family, x int, ys []int) ([]int, int) {
	q := fam.Q()
	own := make([]int, q)
	for alpha := range own {
		own[alpha] = fam.Eval(x, alpha)
	}
	agrees := make([]int, q)
	for _, y := range ys {
		if y == x {
			continue
		}
		for alpha := range agrees {
			if fam.Eval(y, alpha) == own[alpha] {
				agrees[alpha]++
			}
		}
	}
	best := 0
	for alpha := 1; alpha < q; alpha++ {
		if agrees[alpha] < agrees[best] {
			best = alpha
		}
	}
	return agrees, best*q + own[best]
}

// primesUpTo lists the primes <= n.
func primesUpTo(n int) []int {
	var ps []int
	for p := 2; p <= n; p++ {
		if IsPrime(p) {
			ps = append(ps, p)
		}
	}
	return ps
}

// splitDiff returns the coefficients (c_0..c_d, mod q) of a difference
// polynomial with chosen roots: lc * prod (a - r_j) over e <= d roots,
// where each root repeats the previous one with probability 1/2. So it
// yields constant differences (e = 0, no root), linear ones (e = 1,
// delta2 = 0) and repeated roots (a zero discriminant at e = d = 2).
func splitDiff(rng *rand.Rand, q, d int) []int {
	c := make([]int, d+1)
	c[0] = 1 + rng.Intn(q-1)
	e := rng.Intn(d + 1)
	r := rng.Intn(q)
	for j := 0; j < e; j++ {
		if j > 0 && rng.Intn(2) == 0 {
			r = rng.Intn(q)
		}
		// c *= (a - r): shift up, subtract r times the old coefficients.
		for i := j + 1; i >= 1; i-- {
			c[i] = (c[i-1] + (q-r)*c[i]) % q
		}
		c[0] = (q - r) * c[0] % q
	}
	return c
}

// rootsCase draws a color x in [0, 3*q^(d+1)) and up to 12 conflict
// colors: uniform draws, x itself, wraps x + k*q^(d+1) that index x's
// polynomial, and colors whose difference from x is splitDiff's.
func rootsCase(rng *rand.Rand, q, d, size int) (int, []int) {
	x := rng.Intn(3 * size)
	ys := make([]int, rng.Intn(13))
	for i := range ys {
		switch rng.Intn(5) {
		case 0:
			ys[i] = x
		case 1:
			ys[i] = x%size + (1+rng.Intn(2))*size
		case 2, 3:
			diff := splitDiff(rng, q, d)
			y, p, rest := 0, 1, x
			for _, c := range diff {
				y += (rest%q - c + q) % q * p
				rest /= q
				p *= q
			}
			ys[i] = y + rng.Intn(3)*size
		default:
			ys[i] = rng.Intn(3 * size)
		}
	}
	return x, ys
}

// TestRootsMatchRowComparison pins the agreement kernel's whole
// agreement vector, not only the color it picks, against the
// row-comparison reference, on every prime q <= 257 and every degree
// d in [0, 5]: both paths (closed form, ladder), q = 2 and q = 3, equal
// and wrapped colors, zero discriminants and linear differences, colors
// up to 3*q^(d+1).
func TestRootsMatchRowComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(2203))
	agrees, scratch := make([]int, 257), make([]int, 257)
	for _, q := range primesUpTo(257) {
		for d := 0; d <= 5; d++ {
			r, err := NewRoots(q, d)
			if err != nil {
				t.Fatal(err)
			}
			fam, err := NewFamilySized(q, d, 0)
			if err != nil {
				t.Fatal(err)
			}
			cases := min(2000, max(50, 60000/(q*(d+1))))
			for c := 0; c < cases; c++ {
				x, ys := rootsCase(rng, q, d, fam.Size())
				want, wantColor := refRecolor(fam, x, ys)
				got := r.Recolor(agrees, scratch, x, ys, nil)
				if !slices.Equal(agrees[:q], want) || got != wantColor {
					t.Fatalf("q=%d d=%d closed=%v x=%d ys=%v:\nagrees %v -> %d\nref    %v -> %d",
						q, d, r.closed, x, ys, agrees[:q], got, want, wantColor)
				}
			}
		}
	}
}

// TestRootsTables checks the closed-form tables on every prime below
// 1000: inv[a] * a = 1, and sqrt[a] is a root of a or -1 exactly for
// the non-residues (Euler's criterion a^((q-1)/2) = -1).
func TestRootsTables(t *testing.T) {
	for _, q := range primesUpTo(1000) {
		r, err := NewRoots(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if q == 2 {
			if r.closed {
				t.Fatal("q=2 d=2 took the closed form: 2 has no inverse")
			}
			continue
		}
		for a := 1; a < q; a++ {
			if int(r.inv[a])*a%q != 1 {
				t.Fatalf("q=%d: inv[%d] = %d", q, a, r.inv[a])
			}
		}
		for a := 0; a < q; a++ {
			euler := 1
			for i := 0; i < (q-1)/2; i++ {
				euler = euler * a % q
			}
			s := int(r.sqrt[a])
			switch {
			case s >= 0 && s*s%q != a:
				t.Fatalf("q=%d: sqrt[%d] = %d", q, a, s)
			case s < 0 && euler != q-1:
				t.Fatalf("q=%d: %d marked a non-residue, Euler says %d", q, a, euler)
			}
		}
	}
}

// TestRootsPaths pins which families resolve neighbours in closed
// form: d <= 1, and d = 2 over an odd field; q = 2 at d = 2, every
// d >= 3 and fields past maxRootTable take the ladder and build no
// table.
func TestRootsPaths(t *testing.T) {
	for _, tc := range []struct {
		q, d   int
		closed bool
	}{
		{2, 0, true}, {2, 1, true}, {3, 2, true}, {37, 2, true}, {101, 1, true},
		{2, 2, false}, {13, 3, false}, {11, 4, false}, {2, 5, false},
		{NextPrime(maxRootTable), 2, false},
	} {
		r, err := NewRoots(tc.q, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		if r.closed != tc.closed || r.q != tc.q || r.d != tc.d {
			t.Errorf("NewRoots(%d, %d): closed=%v q=%d d=%d", tc.q, tc.d, r.closed, r.q, r.d)
		}
		if !tc.closed && (r.inv != nil || r.sqrt != nil) {
			t.Errorf("NewRoots(%d, %d): ladder kernel built tables", tc.q, tc.d)
		}
	}
	if _, err := NewRoots(10, 1); err == nil {
		t.Error("NewRoots(10, 1) accepted a composite modulus")
	}
}

// TestRootsCounts pins the counter definition: one hit for the node's
// own point, plus one per conflict entry y != x - a hit on the closed
// form, a batched evaluation on the ladder.
func TestRootsCounts(t *testing.T) {
	for _, tc := range []struct {
		q, d         int
		hits, ladder int64
	}{{37, 2, 4, 0}, {13, 3, 1, 3}} {
		r, err := NewRoots(tc.q, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		x := 333
		ys := []int{3, x, 88, x, x + 7}
		var c EvalCounters
		r.Recolor(make([]int, tc.q), make([]int, tc.q), x, ys, &c)
		if c.Hits() != tc.hits || c.Batched() != tc.ladder {
			t.Errorf("q=%d d=%d: hits=%d batched=%d, want %d/%d", tc.q, tc.d, c.Hits(), c.Batched(), tc.hits, tc.ladder)
		}
	}
}

// TestRootsZeroAllocs asserts a step allocates nothing on either path,
// counting or not.
func TestRootsZeroAllocs(t *testing.T) {
	ys := []int{31337, 500, 99999, 1234, 500, 88, 4242, 31337}
	for _, tc := range []struct{ q, d int }{{23, 1}, {37, 2}, {101, 2}, {2, 2}, {13, 3}} {
		r, err := NewRoots(tc.q, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		agrees, scratch := make([]int, tc.q), make([]int, tc.q)
		var c EvalCounters
		for _, ec := range []*EvalCounters{nil, &c} {
			if allocs := testing.AllocsPerRun(100, func() { r.Recolor(agrees, scratch, 54321, ys, ec) }); allocs != 0 {
				t.Errorf("q=%d d=%d counting=%v: %v allocs per step", tc.q, tc.d, ec != nil, allocs)
			}
		}
	}
}

// BenchmarkRootsRecolor times one vertex step of the agreement kernel
// with 16 conflict neighbours: legal-forest's first level-coloring step
// (37, 2), the n=10^6 first step (101, 2), and a ladder step (13, 3) of
// the Delta+1 defective levels.
func BenchmarkRootsRecolor(b *testing.B) {
	for _, tc := range []struct {
		name string
		q, d int
		m    int // palette the colors are drawn from
	}{{"q37d2", 37, 2, 50000}, {"q101d2", 101, 2, 1000000}, {"q13d3", 13, 3, 169}} {
		b.Run(tc.name, func(b *testing.B) {
			r, err := NewRoots(tc.q, tc.d)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			ys := make([]int, 16)
			for i := range ys {
				ys[i] = rng.Intn(tc.m)
			}
			x := rng.Intn(tc.m)
			agrees, scratch := make([]int, tc.q), make([]int, tc.q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkColor = r.Recolor(agrees, scratch, x, ys, nil)
			}
		})
	}
}

// sinkColor keeps the benchmarked step from being optimized away.
var sinkColor int
