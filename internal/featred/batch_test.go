package featred

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/nn/nntest"
)

// trainProbeScalar is the pre-batching probe training loop, kept here as
// the bit-equality oracle for TrainProbe.
func trainProbeScalar(d *Dataset, hidden, epochs int, seed int64) *nn.MLP {
	rng := rand.New(rand.NewSource(seed))
	m := nn.NewMLP([]int{d.Dim(), hidden, hidden, 1}, rng)
	opt := nn.NewAdam(0.005)
	layers := nn.LayersOf(m)
	n := len(d.X)
	if n == 0 {
		return m
	}
	const batch = 32
	for ep := 0; ep < epochs; ep++ {
		for b := 0; b < n; b += batch {
			sz := 0
			for i := b; i < b+batch && i < n; i++ {
				j := rng.Intn(n)
				y, c := nntest.Forward(m, d.X[j])
				diff := y[0] - d.Y[j]
				nntest.Backward(m, c, []float64{2 * diff})
				sz++
			}
			opt.Step(layers, sz)
		}
	}
	return m
}

// TestTrainProbeMatchesScalar requires the batched probe training to
// reproduce the scalar trajectory bit for bit (including a dataset size
// that is not a multiple of the minibatch, exercising the tail batch).
func TestTrainProbeMatchesScalar(t *testing.T) {
	d := syntheticData(77, 12, 4, 3)
	batched := TrainProbe(d, 16, 5, 9)
	scalar := trainProbeScalar(d, 16, 5, 9)
	for li := range batched.Layers {
		for i, w := range batched.Layers[li].W {
			if w != scalar.Layers[li].W[i] {
				t.Fatalf("layer %d W[%d]: batched %v != scalar %v", li, i, w, scalar.Layers[li].W[i])
			}
		}
		for i, b := range batched.Layers[li].B {
			if b != scalar.Layers[li].B[i] {
				t.Fatalf("layer %d B[%d] differs", li, i)
			}
		}
	}
}

// TestDiffPropScoresMatchesScalar checks the reference difference
// propagation (batched forwards, one refDiffMultipliers call per pair)
// against a straightforward per-pair scalar recomputation.
// TestDiffPropMatchesReference carries the check on to DiffPropScores.
func TestDiffPropScoresMatchesScalar(t *testing.T) {
	d := syntheticData(60, 10, 3, 5)
	m := TrainProbe(d, 12, 4, 5)
	const nRef = 11
	got := refDiffPropScores(m, d.X, nRef, 2)

	rng := rand.New(rand.NewSource(2))
	refIdx := rng.Perm(len(d.X))[:nRef]
	refs := make([]*nntest.Cache, nRef)
	for i, ri := range refIdx {
		_, refs[i] = nntest.Forward(m, d.X[ri])
	}
	dim := len(d.X[0])
	want := make([]float64, dim)
	var pairs float64
	for _, x := range d.X {
		_, cx := nntest.Forward(m, x)
		for _, cr := range refs {
			mult := refDiffMultipliers(m, cx, cr)
			for k := 0; k < dim; k++ {
				want[k] += math.Abs(mult[k] * (x[k] - cr.Act[0][k]))
			}
			pairs++
		}
	}
	for k := range want {
		want[k] /= pairs
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("score[%d]: batched %v != scalar %v", k, got[k], want[k])
		}
	}
}

// TestQErrorOfMatchesScalar compares the chunked batched evaluation with a
// per-sample loop, masked and unmasked.
func TestQErrorOfMatchesScalar(t *testing.T) {
	d := syntheticData(50, 8, 2, 7)
	m := TrainProbe(d, 8, 3, 7)
	mask := make([]bool, d.Dim())
	for i := range mask {
		mask[i] = i%3 != 0
	}
	for _, tc := range []struct {
		name string
		mask []bool
	}{{"unmasked", nil}, {"masked", mask}} {
		var sum float64
		buf := make([]float64, d.Dim())
		for i, x := range d.X {
			in := x
			if tc.mask != nil {
				copy(buf, x)
				for k, keep := range tc.mask {
					if !keep {
						buf[k] = 0
					}
				}
				in = buf
			}
			sum += metrics.QError(metrics.UnlogMs(d.Y[i]), metrics.UnlogMs(nntest.Predict(m, in)[0]))
		}
		want := sum / float64(len(d.X))
		if got := QErrorOf(m, d, tc.mask); got != want {
			t.Fatalf("%s: QErrorOf %v != scalar %v", tc.name, got, want)
		}
	}
}
