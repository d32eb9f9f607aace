package recolor

import (
	"testing"

	"repro/internal/field"
)

// Shared benchmark shape: a realistic terminal recoloring step (q=23, d=1
// family of a Linial-style schedule) with 16 conflict neighbors, colors in
// [0, 23*23). BenchmarkRecolorOnce is the steady-state hot path (batch
// kernel over a resolved RowBlock, warm per-node scratch, reused
// conflict buffer); BenchmarkRecolorOnceRef is the seed implementation
// it replaced.

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
