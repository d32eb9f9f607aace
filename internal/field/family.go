package field

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// maxRowTableInts caps the memory a family's precomputed row table gets
// at construction when no palette bound is known (ints, i.e. 8 MiB at
// 1<<20). Terminal recoloring families (q up to ~100) are cached in
// full; larger families keep a partial table, and RowBlock.Row
// batch-evaluates the rows beyond it.
const maxRowTableInts = 1 << 20

// maxRowTableGrowInts is the hard ceiling for palette-driven growth
// (EnsureRows): 1<<23 ints = 64 MiB. A first-step family whose palette
// bound exceeds this keeps a partial table; everything below it is
// cached exactly to the palette, so the steady-state hit rate of a
// recoloring schedule is 1 whenever the bound fits.
const maxRowTableGrowInts = 1 << 23

// rowTable is one immutable snapshot of a family's precomputed rows:
// rows[x*q+alpha] = phi_x(alpha) for all x < rowsFor. Growth replaces
// the whole snapshot (copy + extend) behind Family.tab, so readers
// never observe a partially filled table.
type rowTable struct {
	rows    []int
	rowsFor int
}

// Family is a family of functions phi_x : [0,Q) -> [0,Q), indexed by
// x in [0, Size()), such that any two distinct functions agree on at most
// Degree() points. It is realized by polynomials of degree <= D over F_q:
// the index x is interpreted in base q as the coefficient vector
// c_0..c_D, and only the D+1 low-order digits are read, so x and
// x mod q^(D+1) index the same function.
//
// Family satisfies the hypotheses of Lemma 5.1 in the paper (and Lemma 4.3
// of Kuhn SPAA'09): |A| = |B| = q, k = D, and |F| = q^(D+1) >= M functions.
//
// The function family itself is immutable; the precomputed row table
// grows monotonically (EnsureRows) and is published atomically, so a
// Family is safe for concurrent use throughout. Rows are read through a
// RowBlock snapshot (Block). The row table is not on any recoloring
// path - a step counts agreements as roots (Roots) - so only
// perfbench's field-kernel layer and tests reach Family, Block and
// EnsureRows, until the benchmark change that stops timing the row
// surface deletes them.
type Family struct {
	fp     Fp
	degree int // D: maximum polynomial degree
	size   int // q^(D+1), clamped to avoid overflow
	// tab is the current row-table snapshot; Block reads it with one
	// atomic load.
	tab    atomic.Pointer[rowTable]
	growMu sync.Mutex // serializes EnsureRows growth
}

// NewFamilySized constructs the polynomial family over F_q with degree
// bound d, its row table sized to the palette bound m - the number of
// distinct input colors the caller will evaluate, i.e. the m_i of the
// recoloring step using the family. q must be prime and d must lie in
// [0, maxBatchDegree], the degrees the batch kernel evaluates. The
// family contains q^(d+1) functions (saturating at MaxInt-ish sizes;
// callers only need size >= their M). The table covers
// min(m, Size(), maxRowTableGrowInts/q) indices; m < 0 means "palette
// unknown" and falls back to the default construction cap. The table
// can still grow later via EnsureRows.
func NewFamilySized(q, d, m int) (*Family, error) {
	fp, err := NewFp(q)
	if err != nil {
		return nil, err
	}
	if d < 0 || d > maxBatchDegree {
		return nil, fmt.Errorf("field: degree %d outside [0, %d]", d, maxBatchDegree)
	}
	size := 1
	for i := 0; i <= d; i++ {
		if size > (1<<62)/q {
			size = 1 << 62 // effectively unbounded for our purposes
			break
		}
		size *= q
	}
	f := &Family{fp: fp, degree: d, size: size}
	rows := size
	if m >= 0 {
		if m < rows {
			rows = m
		}
		if c := maxRowTableGrowInts / q; rows > c {
			rows = c
		}
	} else if c := maxRowTableInts / q; rows > c {
		rows = c
	}
	f.tab.Store(f.extendRows(&rowTable{}, rows))
	return f, nil
}

// extendRows builds a new snapshot covering rowsFor indices, copying the
// already computed prefix of t and batch-evaluating the remainder: the
// appended rows are one contiguous run of function indices, which is
// exactly FillRows' shape, so table growth pays the division-free
// kernel rate.
func (f *Family) extendRows(t *rowTable, rowsFor int) *rowTable {
	q := f.fp.Q()
	rows := make([]int, rowsFor*q)
	copy(rows, t.rows)
	if rowsFor > t.rowsFor {
		FillRows(q, f.degree, t.rowsFor, rows[t.rowsFor*q:])
	}
	return &rowTable{rows: rows, rowsFor: rowsFor}
}

// EnsureRows grows the precomputed row table to cover the palette bound
// m - min(m, Size(), maxRowTableGrowInts/q) indices - and returns the
// resulting RowsCached. Growth is monotone (a smaller m never shrinks
// the table) and safe for concurrent use; readers keep the snapshot
// they loaded, so earlier RowBlock snapshots remain valid. Block calls
// it; like the table, it is reached only by perfbench's field-kernel
// layer and tests.
func (f *Family) EnsureRows(m int) int {
	q := f.fp.Q()
	target := m
	if target > f.size {
		target = f.size
	}
	if c := maxRowTableGrowInts / q; target > c {
		target = c
	}
	if t := f.tab.Load(); t.rowsFor >= target {
		return t.rowsFor
	}
	f.growMu.Lock()
	defer f.growMu.Unlock()
	t := f.tab.Load()
	if t.rowsFor >= target {
		return t.rowsFor
	}
	t = f.extendRows(t, target)
	f.tab.Store(t)
	return t.rowsFor
}

// Q returns the common domain/range size |A| = |B| = q.
func (f *Family) Q() int { return f.fp.Q() }

// Degree returns the polynomial degree bound D.
func (f *Family) Degree() int { return f.degree }

// Size returns the number of functions in the family, q^(D+1).
func (f *Family) Size() int { return f.size }

// RowsCached returns the number of function indices covered by the
// precomputed row table (a RowBlock answers those without computing).
// It only ever grows (EnsureRows).
func (f *Family) RowsCached() int { return f.tab.Load().rowsFor }
