package featred

import "testing"

func BenchmarkDiffPropScores(b *testing.B) {
	d := syntheticData(400, 40, 8, 1)
	m := TrainProbe(d, 32, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffPropScores(m, d.X, 50, 1)
	}
}

// BenchmarkDiffPropScoresFitShape prices a fit's reduction: a
// 46 × 32 × 32 × 1 probe, 250 references and 1 563 samples with the fit
// dataset's repeats (about half the samples, about a quarter of the
// references).
func BenchmarkDiffPropScoresFitShape(b *testing.B) {
	d := fitRepeatData(1563, 1)
	m := TrainProbe(d, 32, 3, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffPropScores(m, d.X, 250, 11)
	}
}

func BenchmarkGradientScores(b *testing.B) {
	d := syntheticData(400, 40, 8, 1)
	m := TrainProbe(d, 32, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GradientScores(m, d.X)
	}
}

func BenchmarkGreedyReduce(b *testing.B) {
	d := syntheticData(200, 20, 5, 1)
	m := TrainProbe(d, 16, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyReduce(m, d)
	}
}
