// Batched (vector-at-a-time) execution for the nn package.
//
// Every routine here is the batch counterpart of a scalar routine in the
// test-only oracle package nntest and is **bit-identical** to running that
// scalar routine once per row: each output element and each gradient
// accumulator receives exactly the same floating-point additions in
// exactly the same order as the scalar path. That rule — same
// accumulation order as the scalar path — is what makes a batch of one,
// a batch of many and minibatch training reproduce the per-sample results
// down to the last bit (see docs/ARCHITECTURE.md, "Batched execution").
// The speedup comes from amortized allocation,
// weight-row reuse across the batch, and multiple independent
// accumulation chains hiding FP-add latency — never from reordering the
// arithmetic inside one sample.
//
// Batches are row-major linalg.Matrix values, one sample per row. Batch
// routines take a *linalg.Arena for their result and scratch matrices;
// nil falls back to heap allocation. Training loops pass an arena and
// Reset it each iteration, which removes the allocation/GC churn that
// otherwise dominates the batched paths.
package nn

import (
	"fmt"

	"repro/internal/linalg"
)

// alloc returns a matrix with undefined contents (every element must be
// overwritten) from the arena, or from the heap when a is nil.
func alloc(a *linalg.Arena, rows, cols int) *linalg.Matrix {
	if a != nil {
		return a.Alloc(rows, cols)
	}
	return linalg.NewMatrix(rows, cols)
}

// allocZero returns a zeroed matrix usable as an accumulator.
func allocZero(a *linalg.Arena, rows, cols int) *linalg.Matrix {
	if a != nil {
		return a.AllocZero(rows, cols)
	}
	return linalg.NewMatrix(rows, cols)
}

// allocFloats returns an undefined-content scratch slice.
func allocFloats(a *linalg.Arena, n int) []float64 {
	if a != nil {
		return a.Floats(n)
	}
	return make([]float64, n)
}

// ForwardBatch computes y = W·x + b for every row of x. Row n of the
// result is bit-identical to the scalar forward of x.Row(n).
func (l *Linear) ForwardBatch(a *linalg.Arena, x *linalg.Matrix) *linalg.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear batch forward got %d inputs, want %d", x.Cols, l.In))
	}
	y := alloc(a, x.Rows, l.Out)
	in := l.In
	for o := 0; o < l.Out; o++ {
		// Keeping the o-loop outermost streams each weight row across the
		// whole batch while it is hot in cache. Four samples run through
		// the inner i-loop together: each sample's accumulator is its own
		// serial chain in the scalar path's order (so results stay
		// bit-identical), and the four independent chains hide the FP-add
		// latency that bounds the one-sample dot product.
		row := l.W[o*in : (o+1)*in]
		b := l.B[o]
		n := 0
		for ; n+3 < x.Rows; n += 4 {
			x0 := x.Data[n*in : (n+1)*in]
			x1 := x.Data[(n+1)*in : (n+2)*in]
			x2 := x.Data[(n+2)*in : (n+3)*in]
			x3 := x.Data[(n+3)*in : (n+4)*in]
			s0, s1, s2, s3 := b, b, b, b
			for i, w := range row {
				s0 += w * x0[i]
				s1 += w * x1[i]
				s2 += w * x2[i]
				s3 += w * x3[i]
			}
			y.Data[n*l.Out+o] = s0
			y.Data[(n+1)*l.Out+o] = s1
			y.Data[(n+2)*l.Out+o] = s2
			y.Data[(n+3)*l.Out+o] = s3
		}
		for ; n < x.Rows; n++ {
			xrow := x.Data[n*in : (n+1)*in]
			s := b
			for i, w := range row {
				s += w * xrow[i]
			}
			y.Data[n*l.Out+o] = s
		}
	}
	return y
}

// BackwardBatch accumulates dL/dW and dL/dB over every row of (x, dy) and
// returns dL/dx. Gradient accumulators receive per-row contributions in
// row order — the order the scalar backward would produce when called once
// per row — so minibatch training is bit-identical to the per-sample loop.
func (l *Linear) BackwardBatch(a *linalg.Arena, x, dy *linalg.Matrix) *linalg.Matrix {
	if x.Cols != l.In || dy.Cols != l.Out || x.Rows != dy.Rows {
		panic(fmt.Sprintf("nn: Linear batch backward got x %dx%d, dy %dx%d for layer %dx%d",
			x.Rows, x.Cols, dy.Rows, dy.Cols, l.In, l.Out))
	}
	dx := allocZero(a, x.Rows, l.In)
	in := l.In
	for o := 0; o < l.Out; o++ {
		row := l.W[o*in : (o+1)*in]
		grow := l.GW[o*in : (o+1)*in]
		n := 0
		// Sample pairs share one pass over the weight row. grow[i] takes
		// the pair's contributions as two separate adds in sample order —
		// the same additions, in the same order, as the scalar path.
		for ; n+1 < x.Rows; n += 2 {
			g0 := dy.Data[n*l.Out+o]
			g1 := dy.Data[(n+1)*l.Out+o]
			if g0 == 0 && g1 == 0 {
				// Matches the scalar skip: a zero upstream gradient adds
				// nothing (not even a signed zero) to any accumulator.
				continue
			}
			if g0 == 0 {
				l.GB[o] += g1
				x1 := x.Data[(n+1)*in : (n+2)*in]
				dx1 := dx.Data[(n+1)*in : (n+2)*in]
				for i, w := range row {
					grow[i] += g1 * x1[i]
					dx1[i] += g1 * w
				}
				continue
			}
			if g1 == 0 {
				l.GB[o] += g0
				x0 := x.Data[n*in : (n+1)*in]
				dx0 := dx.Data[n*in : (n+1)*in]
				for i, w := range row {
					grow[i] += g0 * x0[i]
					dx0[i] += g0 * w
				}
				continue
			}
			l.GB[o] += g0
			l.GB[o] += g1
			x0 := x.Data[n*in : (n+1)*in]
			x1 := x.Data[(n+1)*in : (n+2)*in]
			dx0 := dx.Data[n*in : (n+1)*in]
			dx1 := dx.Data[(n+1)*in : (n+2)*in]
			for i, w := range row {
				t := grow[i] + g0*x0[i]
				grow[i] = t + g1*x1[i]
				dx0[i] += g0 * w
				dx1[i] += g1 * w
			}
		}
		for ; n < x.Rows; n++ {
			g := dy.Data[n*l.Out+o]
			if g == 0 {
				continue
			}
			l.GB[o] += g
			xrow := x.Data[n*in : (n+1)*in]
			dxrow := dx.Data[n*in : (n+1)*in]
			for i, w := range row {
				grow[i] += g * xrow[i]
				dxrow[i] += g * w
			}
		}
	}
	return dx
}

// AccumulateBatch is BackwardBatch without the input-gradient product: it
// accumulates dL/dW and dL/dB only. Callers that discard the returned dx
// of the first layer (set networks, probe models) use this to halve that
// layer's backward memory traffic. Accumulator order is unchanged, so
// training stays bit-identical.
func (l *Linear) AccumulateBatch(x, dy *linalg.Matrix) {
	if x.Cols != l.In || dy.Cols != l.Out || x.Rows != dy.Rows {
		panic(fmt.Sprintf("nn: Linear batch accumulate got x %dx%d, dy %dx%d for layer %dx%d",
			x.Rows, x.Cols, dy.Rows, dy.Cols, l.In, l.Out))
	}
	in := l.In
	for o := 0; o < l.Out; o++ {
		grow := l.GW[o*in : (o+1)*in]
		n := 0
		for ; n+1 < x.Rows; n += 2 {
			g0 := dy.Data[n*l.Out+o]
			g1 := dy.Data[(n+1)*l.Out+o]
			if g0 == 0 && g1 == 0 {
				continue
			}
			if g0 == 0 {
				l.GB[o] += g1
				x1 := x.Data[(n+1)*in : (n+2)*in]
				for i := range grow {
					grow[i] += g1 * x1[i]
				}
				continue
			}
			if g1 == 0 {
				l.GB[o] += g0
				x0 := x.Data[n*in : (n+1)*in]
				for i := range grow {
					grow[i] += g0 * x0[i]
				}
				continue
			}
			l.GB[o] += g0
			l.GB[o] += g1
			x0 := x.Data[n*in : (n+1)*in]
			x1 := x.Data[(n+1)*in : (n+2)*in]
			for i := range grow {
				t := grow[i] + g0*x0[i]
				grow[i] = t + g1*x1[i]
			}
		}
		for ; n < x.Rows; n++ {
			g := dy.Data[n*l.Out+o]
			if g == 0 {
				continue
			}
			l.GB[o] += g
			xrow := x.Data[n*in : (n+1)*in]
			for i := range grow {
				grow[i] += g * xrow[i]
			}
		}
	}
}

// BackwardTail is the scalar backward restricted to the trailing `tail`
// entries of the returned input gradient: dL/dW and dL/dB accumulate
// identically to the full backward (same order), but dx is only produced
// for inputs [In-tail, In) — nil when tail is 0. QPPNet consumes only the
// child-sum suffix of its input gradient, and leaves consume nothing.
func (l *Linear) BackwardTail(a *linalg.Arena, x, dy []float64, tail int) []float64 {
	if tail < 0 || tail > l.In {
		panic(fmt.Sprintf("nn: BackwardTail tail %d out of range for In %d", tail, l.In))
	}
	var dx []float64
	if tail > 0 {
		dx = allocFloats(a, tail)
		for i := range dx {
			dx[i] = 0
		}
	}
	head := l.In - tail
	for o := 0; o < l.Out; o++ {
		g := dy[o]
		if g == 0 {
			continue
		}
		l.GB[o] += g
		row := l.W[o*l.In : (o+1)*l.In]
		grow := l.GW[o*l.In : (o+1)*l.In]
		for i := range row {
			grow[i] += g * x[i]
		}
		for i, w := range row[head:] {
			dx[i] += g * w
		}
	}
	return dx
}

// backwardRow is the scalar backward of one row with arena-backed dx,
// used by the per-sample tree backward inside batched training.
func (l *Linear) backwardRow(a *linalg.Arena, x, dy []float64) []float64 {
	dx := allocFloats(a, l.In)
	for i := range dx {
		dx[i] = 0
	}
	for o := 0; o < l.Out; o++ {
		g := dy[o]
		if g == 0 {
			continue
		}
		l.GB[o] += g
		row := l.W[o*l.In : (o+1)*l.In]
		grow := l.GW[o*l.In : (o+1)*l.In]
		for i := range row {
			grow[i] += g * x[i]
			dx[i] += g * row[i]
		}
	}
	return dx
}

// BatchCache caches one batched forward pass: Act[0] is the input batch,
// Act[i] the activation batch after layer i, Pre[i] the pre-activation
// batch of layer i. Backward passes and difference propagation read it
// row by row.
type BatchCache struct {
	Act []*linalg.Matrix
	Pre []*linalg.Matrix
}

// ForwardBatch runs the network over a batch of row vectors and returns
// the output batch plus the batched activation cache. Row n of the output
// (and of every cache matrix) is bit-identical to the scalar forward of
// x.Row(n).
func (m *MLP) ForwardBatch(a *linalg.Arena, x *linalg.Matrix) (*linalg.Matrix, *BatchCache) {
	c := &BatchCache{
		Act: make([]*linalg.Matrix, 0, len(m.Layers)+1),
		Pre: make([]*linalg.Matrix, 0, len(m.Layers)),
	}
	c.Act = append(c.Act, x)
	h := x
	for li, l := range m.Layers {
		z := l.ForwardBatch(a, h)
		c.Pre = append(c.Pre, z)
		if li < len(m.Layers)-1 {
			act := alloc(a, z.Rows, z.Cols)
			for i, v := range z.Data {
				if v > 0 {
					act.Data[i] = v
				} else {
					act.Data[i] = 0
				}
			}
			h = act
		} else {
			h = z
		}
		c.Act = append(c.Act, h)
	}
	return h, c
}

// PredictBatch runs the network over a batch and returns only the output
// batch. ReLU is applied in place on intermediate results.
func (m *MLP) PredictBatch(a *linalg.Arena, x *linalg.Matrix) *linalg.Matrix {
	h := x
	for li, l := range m.Layers {
		h = l.ForwardBatch(a, h)
		if li < len(m.Layers)-1 {
			for i, v := range h.Data {
				if v <= 0 {
					h.Data[i] = 0
				}
			}
		}
	}
	return h
}

// BackwardBatch propagates a batch of output gradients through the cached
// batched pass, accumulating layer gradients, and returns the batch of
// input gradients. Accumulators see per-row contributions in row order —
// bit-identical to the scalar backward called once per row, in order.
func (m *MLP) BackwardBatch(a *linalg.Arena, c *BatchCache, dOut *linalg.Matrix) *linalg.Matrix {
	g := dOut
	for li := len(m.Layers) - 1; li >= 0; li-- {
		if li < len(m.Layers)-1 {
			g = reluMaskBatch(a, c.Pre[li], g)
		}
		g = m.Layers[li].BackwardBatch(a, c.Act[li], g)
	}
	return g
}

// BackwardBatchNoInput is BackwardBatch for callers that discard the
// input gradient (MSCN's set network, the feature-reduction probe): the
// first layer runs accumulate-only. Parameter gradients are bit-identical
// to BackwardBatch.
func (m *MLP) BackwardBatchNoInput(a *linalg.Arena, c *BatchCache, dOut *linalg.Matrix) {
	g := dOut
	for li := len(m.Layers) - 1; li >= 0; li-- {
		if li < len(m.Layers)-1 {
			g = reluMaskBatch(a, c.Pre[li], g)
		}
		if li == 0 {
			m.Layers[0].AccumulateBatch(c.Act[0], g)
			return
		}
		g = m.Layers[li].BackwardBatch(a, c.Act[li], g)
	}
}

// reluMaskBatch gates a gradient batch by the sign of the pre-activation
// batch (the ReLU derivative), writing every element.
func reluMaskBatch(a *linalg.Arena, pre, g *linalg.Matrix) *linalg.Matrix {
	masked := alloc(a, g.Rows, g.Cols)
	for i, v := range g.Data {
		if pre.Data[i] > 0 {
			masked.Data[i] = v
		} else {
			masked.Data[i] = 0
		}
	}
	return masked
}

// BackwardTailRow backpropagates one row of a batched cache through the
// network, accumulating parameter gradients exactly like the scalar
// backward on that row, and produces only the trailing `tail` entries of
// the input gradient. This is the per-sample tree backward of QPPNet's
// batched training: row views keep it allocation-free on the arena, and
// running samples one at a time keeps accumulation in the scalar order.
func (m *MLP) BackwardTailRow(a *linalg.Arena, c *BatchCache, row int, dOut []float64, tail int) []float64 {
	g := dOut
	for li := len(m.Layers) - 1; li >= 0; li-- {
		if li < len(m.Layers)-1 {
			pre := c.Pre[li].RowView(row)
			masked := allocFloats(a, len(g))
			for i := range g {
				if pre[i] > 0 {
					masked[i] = g[i]
				} else {
					masked[i] = 0
				}
			}
			g = masked
		}
		l := m.Layers[li]
		x := c.Act[li].RowView(row)
		if li == 0 {
			return l.BackwardTail(a, x, g, tail)
		}
		g = l.backwardRow(a, x, g)
	}
	return g
}
