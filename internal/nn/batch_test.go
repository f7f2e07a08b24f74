package nn_test

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/nn"
	"repro/internal/nn/nntest"
)

func randBatch(rng *rand.Rand, rows, cols int) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestForwardBatchBitIdentical locks in the batch determinism rule: every
// row of ForwardBatch must equal the scalar Forward bit for bit, not just
// within a tolerance — with and without an arena.
func TestForwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := nn.NewMLP([]int{13, 9, 5, 3}, rng)
	x := randBatch(rng, 17, 13)

	for _, ar := range []*linalg.Arena{nil, {}} {
		yb, cb := m.ForwardBatch(ar, x)
		pb := m.PredictBatch(ar, x)
		for n := 0; n < x.Rows; n++ {
			ys, cs := nntest.Forward(m, x.Row(n))
			for k, v := range ys {
				if yb.At(n, k) != v {
					t.Fatalf("row %d out[%d]: batch %v != scalar %v", n, k, yb.At(n, k), v)
				}
				if pb.At(n, k) != v {
					t.Fatalf("row %d PredictBatch[%d]: %v != %v", n, k, pb.At(n, k), v)
				}
			}
			view := nntest.Sample(cb, n)
			for li := range cs.Pre {
				for i := range cs.Pre[li] {
					if view.Pre[li][i] != cs.Pre[li][i] {
						t.Fatalf("row %d layer %d pre[%d] differs", n, li, i)
					}
				}
				for i := range cs.Act[li+1] {
					if view.Act[li+1][i] != cs.Act[li+1][i] {
						t.Fatalf("row %d layer %d act[%d] differs", n, li, i)
					}
				}
			}
		}
	}
}

// TestArenaReuseStable reruns the same batched pass after arena Resets
// and requires identical results — stale slab contents must never leak.
func TestArenaReuseStable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := nn.NewMLP([]int{11, 7, 2}, rng)
	x := randBatch(rng, 9, 11)
	ar := &linalg.Arena{}
	first, _ := m.ForwardBatch(ar, x)
	want := append([]float64(nil), first.Data...)
	for round := 0; round < 3; round++ {
		ar.Reset()
		y, _ := m.ForwardBatch(ar, x)
		for i, v := range y.Data {
			if v != want[i] {
				t.Fatalf("round %d: output[%d] %v != first run %v", round, i, v, want[i])
			}
		}
	}
}

// TestBackwardBatchBitIdentical runs one minibatch through the batched
// backward pass and through the per-sample scalar path on a clone, and
// requires identical accumulated gradients and identical input gradients.
func TestBackwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := nn.NewMLP([]int{8, 6, 4}, rng)
	ref := m.Clone()
	const batch = 9
	x := randBatch(rng, batch, 8)
	dOut := randBatch(rng, batch, 4)
	// Exercise the g == 0 skip path too, in both halves of a sample pair.
	dOut.Set(3, 1, 0)
	dOut.Set(5, 0, 0)

	_, cb := m.ForwardBatch(nil, x)
	dxb := m.BackwardBatch(nil, cb, dOut)

	dxs := linalg.NewMatrix(batch, 8)
	for n := 0; n < batch; n++ {
		_, c := nntest.Forward(ref, x.Row(n))
		dxs.SetRow(n, nntest.Backward(ref, c, dOut.Row(n)))
	}

	for i := range dxb.Data {
		if dxb.Data[i] != dxs.Data[i] {
			t.Fatalf("dx[%d]: batch %v != scalar %v", i, dxb.Data[i], dxs.Data[i])
		}
	}
	gradsEqual(t, m, ref)
}

func gradsEqual(t *testing.T, a, b *nn.MLP) {
	t.Helper()
	for li := range a.Layers {
		for i, g := range a.Layers[li].GW {
			if g != b.Layers[li].GW[i] {
				t.Fatalf("layer %d GW[%d]: %v != %v", li, i, g, b.Layers[li].GW[i])
			}
		}
		for i, g := range a.Layers[li].GB {
			if g != b.Layers[li].GB[i] {
				t.Fatalf("layer %d GB[%d]: %v != %v", li, i, g, b.Layers[li].GB[i])
			}
		}
	}
}

// TestGradientOnlyVariants checks that AccumulateBatch /
// BackwardBatchNoInput / BackwardTail / BackwardTailRow produce exactly
// the gradients of the full backward, and that tail gradients equal the
// suffix of the full input gradient.
func TestGradientOnlyVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	full := nn.NewMLP([]int{10, 6, 3}, rng)
	noInput := full.Clone()
	tailed := full.Clone()
	const batch, tail = 7, 4
	x := randBatch(rng, batch, 10)
	dOut := randBatch(rng, batch, 3)
	dOut.Set(2, 0, 0)

	_, cf := full.ForwardBatch(nil, x)
	dxFull := full.BackwardBatch(nil, cf, dOut)

	_, cn := noInput.ForwardBatch(nil, x)
	noInput.BackwardBatchNoInput(nil, cn, dOut)
	gradsEqual(t, noInput, full)

	// One tail backward per row, in row order, must equal one full
	// batched backward in gradient space, and the tail dx must equal the
	// suffix of the full input gradient.
	ar := &linalg.Arena{}
	_, ct := tailed.ForwardBatch(ar, x)
	for n := 0; n < batch; n++ {
		dx := tailed.BackwardTailRow(ar, ct, n, dOut.Row(n), tail)
		for i := 0; i < tail; i++ {
			if dx[i] != dxFull.At(n, 10-tail+i) {
				t.Fatalf("row %d tail dx[%d]: %v != full %v", n, i, dx[i], dxFull.At(n, 10-tail+i))
			}
		}
	}
	gradsEqual(t, tailed, full)

	// tail=0 accumulates the same gradients and returns no input gradient.
	noDx := full.Clone()
	ref := full.Clone()
	_, cz := noDx.ForwardBatch(nil, x)
	_, cr := ref.ForwardBatch(nil, x)
	for n := 0; n < batch; n++ {
		if got := noDx.BackwardTailRow(nil, cz, n, dOut.Row(n), 0); got != nil {
			t.Fatalf("tail=0 should return nil, got %v", got)
		}
		nntest.Backward(ref, nntest.Sample(cr, n), dOut.Row(n))
	}
	gradsEqual(t, noDx, ref)
}

// TestBatchedTrainingTrajectory trains two clones for several Adam steps —
// one with the batched forward/backward on a reused arena, one sample at
// a time — and requires bit-identical weights afterwards.
func TestBatchedTrainingTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mb := nn.NewMLP([]int{10, 8, 1}, rng)
	ms := mb.Clone()
	optB, optS := nn.NewAdam(0.01), nn.NewAdam(0.01)
	const batch, steps = 6, 12

	data := randBatch(rng, 64, 10)
	targets := make([]float64, 64)
	for i := range targets {
		targets[i] = rng.NormFloat64()
	}
	drawsB := rand.New(rand.NewSource(99))
	drawsS := rand.New(rand.NewSource(99))
	ar := &linalg.Arena{}

	for s := 0; s < steps; s++ {
		// Batched arm.
		ar.Reset()
		x := ar.Alloc(batch, 10)
		y := make([]float64, batch)
		for b := 0; b < batch; b++ {
			j := drawsB.Intn(64)
			x.SetRow(b, data.RowView(j))
			y[b] = targets[j]
		}
		out, c := mb.ForwardBatch(ar, x)
		dOut := ar.Alloc(batch, 1)
		for b := 0; b < batch; b++ {
			dOut.Data[b] = 2 * (out.Data[b] - y[b])
		}
		mb.BackwardBatch(ar, c, dOut)
		optB.Step(nn.LayersOf(mb), batch)

		// Scalar arm, same draws.
		for b := 0; b < batch; b++ {
			j := drawsS.Intn(64)
			out, c := nntest.Forward(ms, data.Row(j))
			nntest.Backward(ms, c, []float64{2 * (out[0] - targets[j])})
		}
		optS.Step(nn.LayersOf(ms), batch)
	}

	for li := range mb.Layers {
		for i, w := range mb.Layers[li].W {
			if w != ms.Layers[li].W[i] {
				t.Fatalf("step trajectory diverged: layer %d W[%d] %v != %v", li, i, w, ms.Layers[li].W[i])
			}
		}
		for i, b := range mb.Layers[li].B {
			if b != ms.Layers[li].B[i] {
				t.Fatalf("step trajectory diverged: layer %d B[%d] %v != %v", li, i, b, ms.Layers[li].B[i])
			}
		}
	}
}

func TestForwardBatchDimensionPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := nn.NewLinear(4, 2, rng)
	for _, fn := range []func(){
		func() { l.ForwardBatch(nil, linalg.NewMatrix(3, 5)) },
		func() { l.BackwardBatch(nil, linalg.NewMatrix(3, 4), linalg.NewMatrix(2, 2)) },
		func() { l.AccumulateBatch(linalg.NewMatrix(3, 4), linalg.NewMatrix(3, 3)) },
		func() { l.BackwardTail(nil, make([]float64, 4), make([]float64, 2), 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("dimension mismatch should panic")
				}
			}()
			fn()
		}()
	}
}
