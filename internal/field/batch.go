package field

import "fmt"

// This file implements the batched polynomial-evaluation kernel: the
// allocation-free, division-free finite-difference ladder
// (batchEvalDigits) that the agreement kernel's ladder path (roots.go)
// evaluates difference polynomials with, and the row surface built on
// it - BatchEval, FillRows and RowBlock. No recoloring pipeline reads
// rows any more (a step counts roots); only perfbench's field-kernel
// layer and tests reach the row surface, until the benchmark change
// that stops timing it deletes it.
//
// Scalar Horner evaluation pays a division per digit per point; the
// kernels below amortize the digit decoding over a whole row (one x
// against the contiguous run of alphas 0..q-1) or a whole block of rows
// (a contiguous run of x-values), and replace every inner-loop `% q`
// with a branch-free conditional subtraction, so the steady-state cost
// per evaluated point is a couple of ALU ops. RowBlock packages an
// immutable row-table snapshot with the family parameters so callers
// resolve the atomic table pointer once instead of once per candidate.

// maxBatchDegree bounds the stack-resident finite-difference state of
// the batch kernels, and with it the degree of every family
// (NewFamilySized and NewRoots reject a higher one). It matches the
// schedule planner's degree search bound, so no schedule reaches past
// it.
const maxBatchDegree = 64

// RowBlock is a resolved snapshot of a family's evaluation surface: the
// row-major precomputed table (rows[x*q+alpha] = phi_x(alpha) for
// x < Cached()) plus the (q, d) parameters needed to batch-evaluate any
// row beyond it. The zero value is unusable; obtain one from
// Family.Block. A RowBlock is immutable and safe for concurrent use;
// later EnsureRows growth is not reflected in it (re-Block to observe
// growth). Only perfbench's field-kernel layer and tests reach it.
type RowBlock struct {
	rows   []int
	cached int
	q, d   int
}

// Block returns a snapshot of the family's row table after growing it
// to cover the palette bound m (EnsureRows; m < 0 skips growth). The
// snapshot's Row materializes indices beyond Cached() with the batch
// kernel. Only perfbench's field-kernel layer and tests call it.
func (f *Family) Block(m int) RowBlock {
	if m >= 0 {
		f.EnsureRows(m)
	}
	t := f.tab.Load()
	return RowBlock{rows: t.rows, cached: t.rowsFor, q: f.fp.Q(), d: f.degree}
}

// Q returns the family's field size (the row length).
func (b *RowBlock) Q() int { return b.q }

// Degree returns the family's polynomial degree bound.
func (b *RowBlock) Degree() int { return b.d }

// Cached returns the number of rows the snapshot answers from the
// precomputed table; Row materializes anything beyond it with BatchEval.
func (b *RowBlock) Cached() int { return b.cached }

// Row returns the value vector (phi_x(0), ..., phi_x(q-1)): a read-only
// view into the table snapshot when x < Cached(), otherwise the row is
// batch-evaluated into scratch (which must have length >= Q()) and
// scratch[:Q()] is returned. Callers must not write through a returned
// table view.
//
//distvet:noalloc
func (b *RowBlock) Row(x int, scratch []int) []int {
	if x < b.cached {
		s := x * b.q
		return b.rows[s : s+b.q : s+b.q]
	}
	row := scratch[:b.q]
	BatchEval(b.q, b.d, x, row)
	return row
}

// BatchEval evaluates the one polynomial indexed by x against the
// contiguous run of points alpha = 0..len(dst)-1, writing phi_x(alpha)
// into dst; only perfbench's field-kernel layer and tests call it. It
// equals Horner evaluation at every point (the family's
// index contract: x must be non-negative and is read modulo q^(d+1)),
// but decodes the base-q digits of x once and advances a
// finite-difference ladder with d branch-free conditional-subtraction
// additions per point, so the inner loop performs no division at all.
// len(dst) must not exceed q (alpha is a field point), and d must lie
// in [0, maxBatchDegree], like every family's degree.
//
//distvet:noalloc
func BatchEval(q, d, x int, dst []int) {
	if x < 0 {
		panic(fmt.Sprintf("field: negative function index %d", x))
	}
	if len(dst) > q {
		panic(fmt.Sprintf("field: %d evaluation points over F_%d", len(dst), q))
	}
	var digs [maxBatchDegree + 1]int
	decodeDigits(q, d, x, digs[:d+1])
	batchEvalDigits(q, d, digs[:d+1], dst)
}

// decodeDigits writes the low d+1 base-q digits of x (the coefficient
// vector c_0..c_d) into digs.
//
//distvet:noalloc
func decodeDigits(q, d, x int, digs []int) {
	for i := 0; i <= d; i++ {
		digs[i] = x % q
		x /= q
	}
}

// batchEvalDigits is the finite-difference core of BatchEval: given the
// decoded coefficient vector, it seeds the ladder with the polynomial's
// values at 0..d (Horner on the digits - the only remaining `% q`
// sites, O(d^2) of them per row) and then emits each further point with
// d additions mod q, reduced by branch-free conditional subtraction.
//
//distvet:noalloc
func batchEvalDigits(q, d int, digs []int, dst []int) {
	var w [maxBatchDegree + 1]int
	k := d + 1
	if k > len(dst) {
		k = len(dst)
	}
	// Seed: w[j] = phi(j) for j = 0..d (clamped to the requested run).
	for j := 0; j < k; j++ {
		acc := 0
		for i := d; i >= 0; i-- {
			acc = (acc*j + digs[i]) % q
		}
		w[j] = acc
		dst[j] = acc
	}
	if k <= d {
		return // the run ends inside the seed
	}
	// Forward differences in place: w[j] becomes Delta^j phi(0).
	for lvl := 1; lvl <= d; lvl++ {
		for j := d; j >= lvl; j-- {
			t := w[j] - w[j-1]
			t += q & (t >> 63) // t in (-q, q): add q back when negative
			w[j] = t
		}
	}
	// Advance: each fold moves the ladder one point right
	// (Delta^j phi(a+1) = Delta^j phi(a) + Delta^(j+1) phi(a)), with one
	// conditional-subtraction addition per level. The first d folds
	// rewrite the seeded prefix with identical values, keeping the loop
	// branch-free.
	for alpha := 1; alpha < len(dst); alpha++ {
		for j := 0; j < d; j++ {
			t := w[j] + w[j+1] - q
			t += q & (t >> 63) // t in (-q, q): fold back into [0, q)
			w[j] = t
		}
		dst[alpha] = w[0]
	}
}

// FillRows evaluates the whole family against a contiguous run of
// x-values: rows[r*q : (r+1)*q] receives the value vector of function
// index x0+r, for r = 0..len(rows)/q-1. The digit odometer is advanced
// incrementally across rows (amortized O(1) divisions per row), so
// bulk table construction - EnsureRows growth, its only caller - pays
// the batch-kernel rate. len(rows) must be a multiple of q; x0 must be
// non-negative and is read modulo q^(d+1) like every function index; d
// must lie in [0, maxBatchDegree].
func FillRows(q, d, x0 int, rows []int) {
	if x0 < 0 {
		panic(fmt.Sprintf("field: negative function index %d", x0))
	}
	if len(rows)%q != 0 {
		panic(fmt.Sprintf("field: row run of %d ints is not a multiple of q=%d", len(rows), q))
	}
	var digs [maxBatchDegree + 1]int
	decodeDigits(q, d, x0, digs[:d+1])
	for s := 0; s < len(rows); s += q {
		batchEvalDigits(q, d, digs[:d+1], rows[s:s+q])
		// Increment the base-q odometer; wrapping past q^(d+1) matches
		// the index contract (digits above d are discarded).
		for i := 0; i <= d; i++ {
			digs[i]++
			if digs[i] < q {
				break
			}
			digs[i] = 0
		}
	}
}

// AgreeRun is the row-comparison form of the agreement count that
// Roots.Recolor replaced; only perfbench's field-kernel layer and tests
// call it. It counts, for every point alpha, how many entries of the
// sorted candidate run ys collide with the reference row at alpha:
// agrees[alpha] accumulates the multiplicity of every y != skip whose
// row agrees with ref there. This is the one-call-per-node form of the
// recoloring agreement loop: the run is walked once, equal candidates
// are grouped so each distinct row is materialized at most once (a
// table view when y < Cached(), the batch kernel into rowScratch -
// length >= Q() - otherwise), and each row is consumed immediately
// after materialization so the working set stays at three rows. ec,
// when non-nil, records one classified count per distinct candidate
// (table hit or batched evaluation).
//
//distvet:noalloc
func (b *RowBlock) AgreeRun(agrees, ref []int, ys []int, skip int, rowScratch []int, ec *EvalCounters) {
	for i := 0; i < len(ys); {
		y := ys[i]
		j := i + 1
		for j < len(ys) && ys[j] == y {
			j++
		}
		mult := j - i
		i = j
		if y == skip {
			continue
		}
		ec.CountRow(b.cached, y)
		// Branchy on purpose: two distinct degree-d polynomials agree on
		// at most d of q points, so the branch is almost always not
		// taken and predicts nearly perfectly - cheaper than a
		// data-independent equality mask on every recoloring workload.
		row := b.Row(y, rowScratch)[:len(agrees)]
		r := ref[:len(agrees)]
		for i := range agrees {
			if row[i] == r[i] {
				agrees[i] += mult
			}
		}
	}
}
