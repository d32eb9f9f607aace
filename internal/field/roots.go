package field

import "fmt"

// This file implements the recoloring step's agreement kernel. A step
// (Appendix B of the paper) moves a node of color x to the point alpha
// at which the fewest conflict neighbours' polynomials agree with its
// own, and two polynomials of degree <= d over F_q agree exactly at the
// roots of their difference: phi_x - phi_y has at most d roots when
// phi_y != phi_x, and vanishes everywhere when x and y are congruent
// modulo q^(d+1). So the kernel counts agreements root by root and
// never compares rows:
//
//   - d <= 1, and d = 2 over an odd field, have closed-form roots: a
//     linear difference has the one root -delta0/delta1, a quadratic
//     one (-delta1 +- sqrt(disc)) / (2 delta2), read off per-field
//     tables of inverses and square roots - O(1) per neighbour;
//   - every other family (q = 2 with d = 2, or d >= 3) evaluates the
//     difference at all q points with the finite-difference ladder
//     (batchEvalDigits) and counts its zeros.
//
// Neither path reads or builds a row table, and the node's own
// polynomial is evaluated at one point only: the one the step picks.

// maxRootTable bounds the field size of the closed-form path, whose
// inverse and square-root tables hold q entries each. Schedules only
// progress while q^2 < M0, so real steps sit far below it; a larger
// field takes the ladder path, exact for any q. It also keeps every
// closed-form product below 2^63.
const maxRootTable = 1 << 24

// Roots is the agreement kernel of the (q, d) polynomial family: the
// Family index contract (x read in base q as the coefficients c_0..c_d,
// modulo q^(d+1)) with the tables its closed-form roots need. It is
// immutable and safe for concurrent use; a recoloring run builds one
// per schedule step.
type Roots struct {
	q, d int
	// closed selects the closed-form path (d <= 1, or d = 2 with q odd).
	closed bool
	// inv[a] is a^-1 mod q for a in [1, q) (closed form only).
	inv []int32
	// sqrt[a] is some s with s*s = a mod q, or -1 when a is a
	// quadratic non-residue (d = 2 only).
	sqrt []int32
}

// NewRoots builds the agreement kernel of the family over F_q with
// degree bound d in O(q): the inverse table by the linear recurrence
// a^-1 = -(q/a) * (q mod a)^-1, the square-root table by one pass over
// the squares. q must be prime and d must lie in [0, maxBatchDegree],
// the degrees a family accepts.
func NewRoots(q, d int) (*Roots, error) {
	if _, err := NewFp(q); err != nil {
		return nil, err
	}
	if d < 0 || d > maxBatchDegree {
		return nil, fmt.Errorf("field: degree %d outside [0, %d]", d, maxBatchDegree)
	}
	r := &Roots{q: q, d: d, closed: (d <= 1 || d == 2 && q%2 == 1) && q <= maxRootTable}
	if !r.closed {
		return r, nil
	}
	r.inv = make([]int32, q)
	r.inv[1] = 1
	for a := 2; a < q; a++ {
		r.inv[a] = int32(q - (q/a)*int(r.inv[q%a])%q)
	}
	if d == 2 {
		r.sqrt = make([]int32, q)
		for a := range r.sqrt {
			r.sqrt[a] = -1
		}
		// s^2 for s = 0..(q-1)/2 covers every residue once: (q-s)^2 = s^2.
		sq := 0
		for s := 0; s <= (q-1)/2; s++ {
			r.sqrt[sq] = int32(s)
			sq += 2*s + 1 // (s+1)^2 = s^2 + 2s + 1; the sum stays below 2q
			if sq >= q {
				sq -= q
			}
		}
	}
	return r, nil
}

// Recolor runs one recoloring step of the color x against the colors
// ys of its conflict neighbours (non-negative, in any order, repeats
// counted) and returns the new color alpha*q + phi_x(alpha).
//
// It sets agrees[alpha] (len(agrees) >= q) to the number of entries
// y != x whose polynomial agrees with phi_x at alpha: each adds one at
// every root of phi_x - phi_y, and at every point when the two
// polynomials are equal. alpha is the point with the fewest
// agreements, the lowest on ties. scratch (len >= q) is the ladder's
// row buffer and is not read on the closed-form path. ec, when
// non-nil, counts the step with one call (EvalCounters.countStep).
//
//distvet:noalloc
func (r *Roots) Recolor(agrees, scratch []int, x int, ys []int, ec *EvalCounters) int {
	agrees = agrees[:r.q]
	clear(agrees)
	if r.closed {
		var xd [3]int
		decodeDigits(r.q, r.d, x, xd[:r.d+1])
		ec.countStep(true, r.closedRoots(agrees, &xd, x, ys))
		return r.pick(agrees, xd[:r.d+1])
	}
	var xd [maxBatchDegree + 1]int
	decodeDigits(r.q, r.d, x, xd[:r.d+1])
	ec.countStep(false, r.ladderRoots(agrees, scratch[:r.q], &xd, x, ys))
	return r.pick(agrees, xd[:r.d+1])
}

// pick returns alpha*q + phi_x(alpha) for the point alpha with the
// fewest agreements, the lowest on ties; xd holds the digits of x. A
// step usually leaves most points at zero, so the first zero - the
// lowest point of the minimum when one exists - ends the scan early.
//
//distvet:noalloc
func (r *Roots) pick(agrees, xd []int) int {
	q := r.q
	best := 0
	for best < q && agrees[best] != 0 {
		best++
	}
	if best == q {
		best = 0
		for alpha := 1; alpha < q; alpha++ {
			if agrees[alpha] < agrees[best] {
				best = alpha
			}
		}
	}
	v := 0
	for i := len(xd) - 1; i >= 0; i-- {
		v = (v*best + xd[i]) % q
	}
	return best*q + v
}

// closedRoots adds the closed-form roots of phi_x - phi_y to agrees for
// every y != x in ys (d <= 2, q odd when d = 2) and returns how many
// such y it saw. xd holds the decoded digits of x.
//
//distvet:noalloc
func (r *Roots) closedRoots(agrees []int, xd *[3]int, x int, ys []int) int {
	q, d := r.q, r.d
	inv, sqrt := r.inv, r.sqrt
	n := 0
	for _, y := range ys {
		if y == x {
			continue
		}
		n++
		// delta_i = c_i(x) - c_i(y) mod q, the difference's coefficients.
		var d1, d2 int
		d0 := xd[0] - y%q
		d0 += q & (d0 >> 63)
		if d >= 1 {
			y /= q
			d1 = xd[1] - y%q
			d1 += q & (d1 >> 63)
			if d == 2 {
				y /= q
				d2 = xd[2] - y%q
				d2 += q & (d2 >> 63)
			}
		}
		switch {
		case d2 != 0:
			// delta2 a^2 + delta1 a + delta0 = 0: a = (-delta1 +- s) / (2 delta2)
			// with s^2 = delta1^2 - 4 delta2 delta0.
			disc := (d1*d1 + 4*(q-d2)*d0) % q
			t := 2 * d2
			if t >= q {
				t -= q
			}
			h := int(inv[t])
			if disc == 0 {
				agrees[(q-d1)*h%q]++ // one double root, counted once
				continue
			}
			s := int(sqrt[disc])
			if s < 0 {
				continue // a non-residue: no root
			}
			agrees[(q-d1+s)*h%q]++
			agrees[(2*q-d1-s)*h%q]++
		case d1 != 0:
			agrees[(q-d0)*int(inv[d1])%q]++ // delta1 a + delta0 = 0
		case d0 == 0:
			// y = x mod q^(d+1), y != x: the same polynomial agrees
			// everywhere.
			for alpha := range agrees {
				agrees[alpha]++
			}
		}
	}
	return n
}

// ladderRoots counts the zeros of phi_x - phi_y for every y != x in ys
// by evaluating the difference at all q points with the
// finite-difference ladder into row, and returns how many such y it
// saw. xd holds the decoded digits of x.
//
//distvet:noalloc
func (r *Roots) ladderRoots(agrees, row []int, xd *[maxBatchDegree + 1]int, x int, ys []int) int {
	q, d := r.q, r.d
	var diff [maxBatchDegree + 1]int
	n := 0
	for _, y := range ys {
		if y == x {
			continue
		}
		n++
		for i := 0; i <= d; i++ {
			c := xd[i] - y%q
			diff[i] = c + q&(c>>63)
			y /= q
		}
		batchEvalDigits(q, d, diff[:d+1], row)
		for alpha, v := range row {
			if v == 0 {
				agrees[alpha]++
			}
		}
	}
	return n
}
