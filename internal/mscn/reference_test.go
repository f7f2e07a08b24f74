package mscn

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/nn/nntest"
	"repro/internal/planner"
)

// The per-sample forward, predictor and trainer the package started with,
// kept here — out of the production build — as the bit-equality oracles
// batch_test.go holds PredictBatch, PredictFeaturizedBatch and Train to.
// They drive nntest's scalar Forward/Backward one plan at a time.

type forwardCache struct {
	nodeCaches []*nntest.Cache
	pooled     []float64
	outCache   *nntest.Cache
	out        float64
	n          int
}

func (m *Model) forward(root *planner.Node) *forwardCache {
	fc := &forwardCache{pooled: make([]float64, m.SetNet.OutDim())}
	root.Walk(func(n *planner.Node) {
		emb, c := nntest.Forward(m.SetNet, m.F.Node(n))
		fc.nodeCaches = append(fc.nodeCaches, c)
		for i, v := range emb {
			fc.pooled[i] += v
		}
		fc.n++
	})
	inv := 1 / float64(fc.n)
	for i := range fc.pooled {
		fc.pooled[i] *= inv
	}
	y, oc := nntest.Forward(m.OutNet, fc.pooled)
	fc.outCache = oc
	fc.out = y[0]
	return fc
}

// predictMsReference is the per-plan scalar predictor (the former
// PredictMs).
func (m *Model) predictMsReference(root *planner.Node) float64 {
	fc := m.forward(root)
	return metrics.UnlogMs(fc.out)
}

func (m *Model) backward(fc *forwardCache, dOut float64) {
	dPooled := nntest.Backward(m.OutNet, fc.outCache, []float64{dOut})
	inv := 1 / float64(fc.n)
	dEmb := make([]float64, len(dPooled))
	for i, v := range dPooled {
		dEmb[i] = v * inv
	}
	for _, c := range fc.nodeCaches {
		nntest.Backward(m.SetNet, c, dEmb)
	}
}

// TrainReference is the original per-sample training loop. It consumes the
// model's rng exactly like Train.
func (m *Model) TrainReference(plans []*planner.Node, ms []float64, iters int) time.Duration {
	start := time.Now()
	if len(plans) == 0 {
		return time.Since(start)
	}
	layers := nn.LayersOf(m.SetNet, m.OutNet)
	targets := make([]float64, len(ms))
	for i, v := range ms {
		targets[i] = metrics.LogMs(v)
	}
	bs := m.batch()
	for it := 0; it < iters; it++ {
		sz := 0
		for b := 0; b < bs; b++ {
			j := m.rng.Intn(len(plans))
			fc := m.forward(plans[j])
			diff := fc.out - targets[j]
			m.backward(fc, 2*diff)
			sz++
		}
		m.opt.Step(layers, sz)
	}
	return time.Since(start)
}
