package qppnet

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/planner"
)

// The per-sample trainer the package started with, kept here — out of the
// production build — as the bit-equality oracle batch_test.go holds Train
// to. It drives nn's scalar Forward/Backward one plan at a time.

// backwardReference is the seed per-sample backward: full input-gradient
// products at every node. TrainReference uses it.
func (m *Model) backwardReference(tc *treeCache, dOut []float64) {
	dIn := m.Nets[tc.op].Backward(tc.cache, dOut)
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
