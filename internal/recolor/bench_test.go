package recolor

import (
	"slices"
	"testing"

	"repro/internal/field"
)

// Shared benchmark shape: a realistic terminal recoloring step (q=23, d=1
// family of a Linial-style schedule) with 16 conflict neighbors, colors in
// [0, 23*23). BenchmarkRecolorOnce is the steady-state hot path (batch
// kernel over a resolved RowBlock, warm per-node scratch, reused
// conflict buffer); BenchmarkRecolorOncePerCandidate is the per-candidate
// RowView walk it replaced, and BenchmarkRecolorOnceRef the seed
// implementation before that.

var benchStep = Step{Q: 23, D: 1, DefectOut: 0}

func benchConflicts() []int {
	return []int{3, 88, 121, 40, 501, 3, 77, 250, 311, 40, 90, 17, 404, 228, 69, 145}
}

const benchColor = 333

func BenchmarkRecolorOnce(b *testing.B) {
	fam, err := field.Families(benchStep.Q, benchStep.D)
	if err != nil {
		b.Fatal(err)
	}
	blk := fam.Block(-1)
	var sc stepScratch
	sc.grow(benchStep.Q)
	conflicts := benchConflicts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.recolorOnce(&blk, benchColor, conflicts, nil)
	}
}

// recolorOncePerCandidate is the pre-kernel hot path kept as a
// benchmark comparator: one atomic table load and one branchy
// compare-and-count loop per candidate (scalar Family.Eval beyond the
// cached table). It must stay bit-for-bit identical to the kernel path.
func (sc *stepScratch) recolorOncePerCandidate(fam *field.Family, x int, conflictColors []int) int {
	q := fam.Q()
	myRow := fam.RowView(x, sc.myRow)
	agrees := sc.agrees[:q]
	clear(agrees)
	slices.Sort(conflictColors)
	for i := 0; i < len(conflictColors); {
		y := conflictColors[i]
		j := i + 1
		for j < len(conflictColors) && conflictColors[j] == y {
			j++
		}
		mult := j - i
		i = j
		if y == x {
			continue
		}
		row := fam.RowView(y, sc.nbrRow)
		for alpha := 0; alpha < q; alpha++ {
			if row[alpha] == myRow[alpha] {
				agrees[alpha] += mult
			}
		}
	}
	bestAlpha := 0
	for alpha := 1; alpha < q; alpha++ {
		if agrees[alpha] < agrees[bestAlpha] {
			bestAlpha = alpha
		}
	}
	return bestAlpha*q + myRow[bestAlpha]
}

func BenchmarkRecolorOncePerCandidate(b *testing.B) {
	fam, err := field.Families(benchStep.Q, benchStep.D)
	if err != nil {
		b.Fatal(err)
	}
	var sc stepScratch
	sc.grow(benchStep.Q)
	conflicts := benchConflicts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.recolorOncePerCandidate(fam, benchColor, conflicts)
	}
}

func BenchmarkRecolorOnceRef(b *testing.B) {
	conflicts := benchConflicts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recolorOnceRef(benchStep, benchColor, conflicts)
	}
}

// BenchmarkRecolorOnceFirstStep measures the first step of a large
// schedule, where the family exceeds the cached row table and rows are
// batch-evaluated into scratch on the fly.
func BenchmarkRecolorOnceFirstStep(b *testing.B) {
	plan := Plan(100000, 16, 0)
	step := plan.Steps[0]
	fam, err := field.Families(step.Q, step.D)
	if err != nil {
		b.Fatal(err)
	}
	blk := fam.Block(-1)
	var sc stepScratch
	sc.grow(step.Q)
	conflicts := []int{31337, 500, 99999, 1234, 500, 88, 4242, 31337}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.recolorOnce(&blk, 54321, conflicts, nil)
	}
}

// BenchmarkRecolorOnceFirstStepPerCandidate is the pre-kernel walk on
// the same beyond-table shape: every uncached row costs a scalar Horner
// loop with a division per digit per point.
func BenchmarkRecolorOnceFirstStepPerCandidate(b *testing.B) {
	plan := Plan(100000, 16, 0)
	step := plan.Steps[0]
	fam, err := field.Families(step.Q, step.D)
	if err != nil {
		b.Fatal(err)
	}
	var sc stepScratch
	sc.grow(step.Q)
	conflicts := []int{31337, 500, 99999, 1234, 500, 88, 4242, 31337}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.recolorOncePerCandidate(fam, 54321, conflicts)
	}
}

func BenchmarkRecolorOnceFirstStepRef(b *testing.B) {
	plan := Plan(100000, 16, 0)
	step := plan.Steps[0]
	conflicts := []int{31337, 500, 99999, 1234, 500, 88, 4242, 31337}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recolorOnceRef(step, 54321, conflicts)
	}
}
