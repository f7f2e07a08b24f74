// Package nn is a minimal pure-Go neural-network library: dense layers,
// ReLU activations, MLP composition with full activation caching, and the
// Adam optimizer. It replaces the PyTorch dependency of the original QPPNet
// and MSCN implementations.
//
// Every pass runs vector-at-a-time (batch.go). ForwardBatch exposes
// per-layer pre-activations and activations because the paper's
// difference-propagation feature reduction (Equation 1) is defined over
// layer activations, and the gradient baseline needs exact input
// gradients through the ReLU masks. The scalar one-sample passes the
// batched kernels are pinned to live in the test-only package nntest.
package nn

import (
	"math"
	"math/rand"
)

// Linear is a dense layer y = W·x + b with accumulated gradients.
type Linear struct {
	In, Out int
	W       []float64 // row-major Out×In
	B       []float64
	GW      []float64
	GB      []float64
}

// NewLinear builds a layer with He-uniform initialization, deterministic
// under the caller's rng.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W:  make([]float64, in*out),
		B:  make([]float64, out),
		GW: make([]float64, in*out),
		GB: make([]float64, out),
	}
	bound := math.Sqrt(6.0 / float64(in))
	for i := range l.W {
		l.W[i] = (rng.Float64()*2 - 1) * bound
	}
	return l
}

// ZeroGrad clears accumulated gradients.
func (l *Linear) ZeroGrad() {
	for i := range l.GW {
		l.GW[i] = 0
	}
	for i := range l.GB {
		l.GB[i] = 0
	}
}

// Clone deep-copies weights (gradients start at zero).
func (l *Linear) Clone() *Linear {
	c := &Linear{
		In: l.In, Out: l.Out,
		W:  append([]float64(nil), l.W...),
		B:  append([]float64(nil), l.B...),
		GW: make([]float64, len(l.GW)),
		GB: make([]float64, len(l.GB)),
	}
	return c
}

// NumParams returns the parameter count.
func (l *Linear) NumParams() int { return len(l.W) + len(l.B) }

// MLP is a stack of Linear layers with ReLU between all but the last.
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer widths, e.g. dims = [in, h1,
// h2, out].
func NewMLP(dims []int, rng *rand.Rand) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least input and output dims")
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(dims[i], dims[i+1], rng))
	}
	return m
}

// InDim and OutDim report the model's input/output widths.
func (m *MLP) InDim() int { return m.Layers[0].In }

// OutDim reports the output width.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }

// ZeroGrad clears every layer's gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// Clone deep-copies the network.
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		c.Layers = append(c.Layers, l.Clone())
	}
	return c
}

// NumParams returns the total parameter count.
func (m *MLP) NumParams() int {
	var n int
	for _, l := range m.Layers {
		n += l.NumParams()
	}
	return n
}
