// Benchmark harness: one benchmark per experiment of internal/experiments
// (E01-E22). Each benchmark executes the experiment end to end on the
// LOCAL-model simulator and reports, besides wall-clock, the paper's
// metrics as custom benchmark outputs: simulated rounds and colors used.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// Absolute wall-clock numbers are properties of the simulator; the
// reproduced quantities are the rounds/colors metrics (README, Benchmarks).
package repro_test

import (
	"testing"

	"repro/internal/experiments"
)

// benchSizes keeps a single benchmark iteration around a second.
var benchSizes = experiments.Sizes{N: 800, Seed: 1}

func benchRows(b *testing.B, fn func(experiments.Sizes) ([]experiments.Row, error)) {
	b.Helper()
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = fn(benchSizes)
		if err != nil {
			b.Fatal(err)
		}
	}
	maxRounds, sumColors := 0, 0
	var sumMessages int64
	for _, r := range rows {
		if !r.OK {
			b.Fatalf("experiment row failed its bound: %+v", r)
		}
		if r.Rounds > maxRounds {
			maxRounds = r.Rounds
		}
		sumColors += r.Colors
		sumMessages += r.Messages
	}
	b.ReportMetric(float64(maxRounds), "rounds")
	if sumColors > 0 {
		b.ReportMetric(float64(sumColors)/float64(len(rows)), "colors/op")
	}
	if sumMessages > 0 {
		b.ReportMetric(float64(sumMessages)/float64(len(rows)), "msgs/op")
	}
}

func BenchmarkE01_HPartition(b *testing.B)           { benchRows(b, experiments.E01HPartition) }
func BenchmarkE02_ForestsDecomposition(b *testing.B) { benchRows(b, experiments.E02Forests) }
func BenchmarkE03_BE08Coloring(b *testing.B)         { benchRows(b, experiments.E03BE08) }
func BenchmarkE04_Linial(b *testing.B)               { benchRows(b, experiments.E04Linial) }
func BenchmarkE05_Defective(b *testing.B)            { benchRows(b, experiments.E05Defective) }
func BenchmarkE06_CompleteOrientation(b *testing.B)  { benchRows(b, experiments.E06CompleteOrientation) }
func BenchmarkE07_PartialOrientation(b *testing.B)   { benchRows(b, experiments.E07PartialOrientation) }
func BenchmarkE08_SimpleArbdefective(b *testing.B)   { benchRows(b, experiments.E08SimpleArbdefective) }
func BenchmarkE09_ArbdefectiveColoring(b *testing.B) {
	benchRows(b, experiments.E09ArbdefectiveColoring)
}
func BenchmarkE10_OneShot(b *testing.B)           { benchRows(b, experiments.E10OneShot) }
func BenchmarkE11_LegalColoring(b *testing.B)     { benchRows(b, experiments.E11LegalColoring) }
func BenchmarkE12_Tradeoff(b *testing.B)          { benchRows(b, experiments.E12Tradeoff) }
func BenchmarkE13_DeltaPlusOne(b *testing.B)      { benchRows(b, experiments.E13DeltaPlusOne) }
func BenchmarkE14_ArbKuhn(b *testing.B)           { benchRows(b, experiments.E14ArbKuhn) }
func BenchmarkE15_FastColoring(b *testing.B)      { benchRows(b, experiments.E15FastColoring) }
func BenchmarkE16_ColorTimeTradeoff(b *testing.B) { benchRows(b, experiments.E16ColorAT) }
func BenchmarkE17_MIS(b *testing.B)               { benchRows(b, experiments.E17MIS) }
func BenchmarkE18_StateOfTheArt(b *testing.B)     { benchRows(b, experiments.E18StateOfTheArt) }
func BenchmarkE19_OrientationColoring(b *testing.B) {
	benchRows(b, experiments.E19OrientationColoring)
}

func BenchmarkE20_AblationOrientation(b *testing.B) {
	benchRows(b, experiments.E20AblationOrientation)
}
func BenchmarkE21_LinialReduction(b *testing.B) { benchRows(b, experiments.E21LinialReduction) }
func BenchmarkE22_IDRobustness(b *testing.B)    { benchRows(b, experiments.E22IDRobustness) }
