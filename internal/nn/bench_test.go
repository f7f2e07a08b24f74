package nn

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// BenchmarkMLPForwardBatch32 reports the cost of the batched forward at
// batch 32.
func BenchmarkMLPForwardBatch32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{64, 32, 32, 16}, rng)
	x := linalg.NewMatrix(32, 64)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	ar := &linalg.Arena{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		m.PredictBatch(ar, x)
	}
}

// BenchmarkMLPTrainIterBatch is one 32-sample training iteration: a
// batched forward and backward, then an Adam step.
func BenchmarkMLPTrainIterBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{64, 32, 32, 1}, rng)
	opt := NewAdam(0.001)
	layers := LayersOf(m)
	x := linalg.NewMatrix(32, 64)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	dOut := linalg.NewMatrix(32, 1)
	ar := &linalg.Arena{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		y, c := m.ForwardBatch(ar, x)
		for n := 0; n < 32; n++ {
			dOut.Data[n] = 2 * y.Data[n]
		}
		m.BackwardBatchNoInput(ar, c, dOut)
		opt.Step(layers, 32)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{64, 32, 32, 16}, rng)
	opt := NewAdam(0.001)
	layers := LayersOf(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(layers, 16)
	}
}
