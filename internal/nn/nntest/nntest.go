// Package nntest is the bitwise oracle for nn's batched kernels: the
// scalar, one-sample-at-a-time forward and backward passes the library
// started with. Every batched routine in nn (ForwardBatch, PredictBatch,
// BackwardBatch and its gradient-only variants) is pinned to produce, row
// for row, exactly the floating-point results these functions produce —
// same additions, same order — and the model packages' reference trainers
// and predictors are built from them.
//
// Nothing in product code imports this package; it exists for _test.go
// files only.
package nntest

import (
	"fmt"

	"repro/internal/nn"
)

// Cache stores one forward pass: Act[0] is the input, Act[i] the activation
// after layer i (post-ReLU for hidden layers), Pre[i] the pre-activation of
// layer i. Difference propagation and backprop both consume it.
type Cache struct {
	Act [][]float64
	Pre [][]float64
}

// LinearForward computes W·x + b.
func LinearForward(l *nn.Linear, x []float64) []float64 {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: Linear forward got %d inputs, want %d", len(x), l.In))
	}
	y := make([]float64, l.Out)
	for o := 0; o < l.Out; o++ {
		row := l.W[o*l.In : (o+1)*l.In]
		s := l.B[o]
		for i, w := range row {
			s += w * x[i]
		}
		y[o] = s
	}
	return y
}

// LinearBackward accumulates dL/dW and dL/dB given the layer input x and
// the upstream gradient dy, and returns dL/dx.
func LinearBackward(l *nn.Linear, x, dy []float64) []float64 {
	dx := make([]float64, l.In)
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

// Forward runs the network and returns the output plus the activation
// cache.
func Forward(m *nn.MLP, x []float64) ([]float64, *Cache) {
	c := &Cache{Act: make([][]float64, 0, len(m.Layers)+1), Pre: make([][]float64, 0, len(m.Layers))}
	c.Act = append(c.Act, x)
	h := x
	for li, l := range m.Layers {
		z := LinearForward(l, h)
		c.Pre = append(c.Pre, z)
		if li < len(m.Layers)-1 {
			a := make([]float64, len(z))
			for i, v := range z {
				if v > 0 {
					a[i] = v
				}
			}
			h = a
		} else {
			h = z
		}
		c.Act = append(c.Act, h)
	}
	return h, c
}

// Predict runs the network and returns only the output.
func Predict(m *nn.MLP, x []float64) []float64 {
	y, _ := Forward(m, x)
	return y
}

// Backward propagates dL/dOut through the cached pass, accumulating layer
// gradients, and returns dL/dInput.
func Backward(m *nn.MLP, c *Cache, dOut []float64) []float64 {
	g := dOut
	for li := len(m.Layers) - 1; li >= 0; li-- {
		if li < len(m.Layers)-1 {
			// Undo ReLU: gradient flows only where pre-activation > 0.
			pre := c.Pre[li]
			masked := make([]float64, len(g))
			for i := range g {
				if pre[i] > 0 {
					masked[i] = g[i]
				}
			}
			g = masked
		}
		g = LinearBackward(m.Layers[li], c.Act[li], g)
	}
	return g
}

// InputGradient returns d out[k] / d x at x (exact, through ReLU masks)
// without touching accumulated parameter gradients.
func InputGradient(m *nn.MLP, x []float64, k int) []float64 {
	_, c := Forward(m, x)
	dOut := make([]float64, m.OutDim())
	dOut[k] = 1
	g := dOut
	for li := len(m.Layers) - 1; li >= 0; li-- {
		if li < len(m.Layers)-1 {
			pre := c.Pre[li]
			masked := make([]float64, len(g))
			for i := range g {
				if pre[i] > 0 {
					masked[i] = g[i]
				}
			}
			g = masked
		}
		l := m.Layers[li]
		dx := make([]float64, l.In)
		for o := 0; o < l.Out; o++ {
			if g[o] == 0 {
				continue
			}
			row := l.W[o*l.In : (o+1)*l.In]
			for i := range row {
				dx[i] += g[o] * row[i]
			}
		}
		g = dx
	}
	return g
}

// Sample returns row n of a batched cache as a scalar Cache of row views
// (no data copying). The views alias the batch matrices; callers must
// treat them as read-only, which every consumer (Backward, difference
// propagation) does.
func Sample(c *nn.BatchCache, n int) *Cache {
	s := &Cache{
		Act: make([][]float64, len(c.Act)),
		Pre: make([][]float64, len(c.Pre)),
	}
	for i, m := range c.Act {
		s.Act[i] = m.RowView(n)
	}
	for i, m := range c.Pre {
		s.Pre[i] = m.RowView(n)
	}
	return s
}
