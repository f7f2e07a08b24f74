package qppnet

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/nn/nntest"
	"repro/internal/planner"
)

// The per-sample forward, predictor and trainer the package started with,
// kept here — out of the production build — as the bit-equality oracles
// batch_test.go holds PredictBatch, PredictFeaturizedBatch and Train to.
// They drive nntest's scalar Forward/Backward one plan at a time.

// refTreeCache stores one scalar forward pass through a plan tree for
// backprop.
type refTreeCache struct {
	op       planner.OpType
	input    []float64
	cache    *nntest.Cache
	out      []float64
	children []*refTreeCache
}

func (m *Model) forward(n *planner.Node) *refTreeCache {
	tc := &refTreeCache{op: n.Op}
	childSum := make([]float64, m.OutVec)
	for _, c := range n.Children {
		cc := m.forward(c)
		tc.children = append(tc.children, cc)
		for i, v := range cc.out {
			childSum[i] += v
		}
	}
	feat := m.F.Node(n)
	tc.input = append(append(make([]float64, 0, len(feat)+m.OutVec), feat...), childSum...)
	tc.out, tc.cache = nntest.Forward(m.Nets[n.Op], tc.input)
	return tc
}

// predictMsReference is the per-plan scalar predictor (the former
// PredictMs).
func (m *Model) predictMsReference(root *planner.Node) float64 {
	tc := m.forward(root)
	return metrics.UnlogMs(tc.out[0])
}

// backwardReference is the seed per-sample backward: full input-gradient
// products at every node. TrainReference uses it.
func (m *Model) backwardReference(tc *refTreeCache, dOut []float64) {
	dIn := nntest.Backward(m.Nets[tc.op], tc.cache, dOut)
	if len(tc.children) == 0 {
		return
	}
	dChild := dIn[len(dIn)-m.OutVec:]
	for _, c := range tc.children {
		m.backwardReference(c, dChild)
	}
}

// TrainReference is the original per-sample training loop. It consumes the
// model's rng exactly like Train.
func (m *Model) TrainReference(plans []*planner.Node, ms []float64, iters int) time.Duration {
	start := time.Now()
	if len(plans) == 0 {
		return time.Since(start)
	}
	layers := m.layers()
	targets := make([]float64, len(ms))
	for i, v := range ms {
		targets[i] = metrics.LogMs(v)
	}
	bs := m.batch()
	for it := 0; it < iters; it++ {
		sz := 0
		for b := 0; b < bs; b++ {
			j := m.rng.Intn(len(plans))
			tc := m.forward(plans[j])
			diff := tc.out[0] - targets[j]
			dOut := make([]float64, m.OutVec)
			dOut[0] = 2 * diff
			m.backwardReference(tc, dOut)
			sz++
		}
		m.opt.Step(layers, sz)
	}
	return time.Since(start)
}
