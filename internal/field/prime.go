// Package field provides small prime-field arithmetic and polynomial
// function families with bounded pairwise agreement.
//
// These families are the combinatorial engine behind Linial-style color
// reduction and Kuhn-style defective/arbdefective recoloring: a family
// {phi_x : A -> B} indexed by colors x such that any two distinct functions
// agree on at most k points of A. Polynomials of degree <= D over a prime
// field F_q agree on at most D points, and there are q^(D+1) of them, which
// realizes exactly the parameters required by Lemma 4.3 of Kuhn (SPAA'09)
// and Lemma 5.1 of Barenboim-Elkin (PODC'10).
//
// A recoloring step needs only where two of these functions agree, and
// two polynomials agree exactly at the roots of their difference: Roots
// counts a step's agreements root by root (closed form for degree <= 2,
// the finite-difference ladder otherwise), so the pigeonhole argument of
// the paper's Appendix B runs without evaluating or storing any row.
package field

import "fmt"

// IsPrime reports whether n is prime. It uses deterministic trial division,
// which is ample for the field sizes used by recoloring schedules (q is at
// most a small polynomial in the maximum degree of the graph).
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	if n%3 == 0 {
		return n == 3
	}
	for d := 5; d*d <= n; d += 6 {
		if n%d == 0 || n%(d+2) == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime >= n. For n <= 2 it returns 2.
func NextPrime(n int) int {
	if n <= 2 {
		return 2
	}
	if n%2 == 0 {
		n++
	}
	for !IsPrime(n) {
		n += 2
	}
	return n
}

// Fp is the prime field Z/qZ for a prime modulus q.
// The zero value is unusable; construct with NewFp.
type Fp struct {
	q int
}

// NewFp returns the prime field with modulus q.
// It returns an error if q is not prime.
func NewFp(q int) (Fp, error) {
	if !IsPrime(q) {
		return Fp{}, fmt.Errorf("field: modulus %d is not prime", q)
	}
	return Fp{q: q}, nil
}

// Q returns the field modulus.
func (f Fp) Q() int { return f.q }
