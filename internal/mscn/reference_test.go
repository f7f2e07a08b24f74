package mscn

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/planner"
)

// The per-sample trainer the package started with, kept here — out of the
// production build — as the bit-equality oracle batch_test.go holds Train
// to. It drives nn's scalar Forward/Backward one plan at a time.

func (m *Model) backward(fc *forwardCache, dOut float64) {
	dPooled := m.OutNet.Backward(fc.outCache, []float64{dOut})
	inv := 1 / float64(fc.n)
	dEmb := make([]float64, len(dPooled))
	for i, v := range dPooled {
		dEmb[i] = v * inv
	}
	for _, c := range fc.nodeCaches {
		m.SetNet.Backward(c, dEmb)
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
