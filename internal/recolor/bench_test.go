package recolor

import (
	"math/rand"
	"testing"
)

// Shared benchmark shape: a realistic terminal recoloring step (q=23, d=1
// family of a Linial-style schedule) with 16 conflict neighbors, colors in
// [0, 23*23). BenchmarkRecolorOnce is the steady-state hot path (the
// step's agreement kernel, warm scratch, reused conflict buffer);
// BenchmarkRecolorOnceRef is the seed implementation it replaced.

var benchStep = Step{Q: 23, D: 1, DefectOut: 0}

func benchConflicts() []int {
	return []int{3, 88, 121, 40, 501, 3, 77, 250, 311, 40, 90, 17, 404, 228, 69, 145}
}

const benchColor = 333

// benchSink keeps the benchmarked step from being optimized away.
var benchSink int

// benchKernel times the step's agreement kernel on one (x, conflicts)
// input with warm scratch.
func benchKernel(b *testing.B, step Step, x int, conflicts []int) {
	r := stepRoot(step)
	var sc stepScratch
	sc.grow(step.Q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = r.Recolor(sc.agrees, sc.row, x, conflicts, nil)
	}
}

func BenchmarkRecolorOnce(b *testing.B) {
	benchKernel(b, benchStep, benchColor, benchConflicts())
}

func BenchmarkRecolorOnceRef(b *testing.B) {
	conflicts := benchConflicts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recolorOnceRef(benchStep, benchColor, conflicts)
	}
}

// BenchmarkRecolorOnceFirstStep measures the first step of a large
// schedule, the one whose family far exceeds any row table.
func BenchmarkRecolorOnceFirstStep(b *testing.B) {
	step := Plan(100000, 16, 0).Steps[0]
	benchKernel(b, step, 54321, []int{31337, 500, 99999, 1234, 500, 88, 4242, 31337})
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

// BenchmarkRecolorOnceScaleStep0 measures the first step of
// Plan(10^6, 16, 0), (q=101, d=2): the step each H-level of an n=10^6
// Legal-Coloring recolors from IDs, with 16 conflict neighbors.
func BenchmarkRecolorOnceScaleStep0(b *testing.B) {
	step := Plan(1000000, 16, 0).Steps[0]
	rng := rand.New(rand.NewSource(3))
	conflicts := make([]int, 16)
	for i := range conflicts {
		conflicts[i] = rng.Intn(1000000)
	}
	benchKernel(b, step, rng.Intn(1000000), conflicts)
}
