package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Table6Row is one row of the paper's Table VI: QCFE(qpp) on TPC-H at
// scale 2000 with a varying number of difference-propagation references.
type Table6Row struct {
	NumReferences  int
	MeanQ          float64
	P95            float64
	P90            float64
	RuntimeSec     float64 // FR runtime (grows linearly with |R|)
	ReductionRatio float64
}

// Table6 reproduces the reference-count robustness study: mean/95th/90th
// q-error, FR runtime, and reduction ratio as |R| grows from 200 to 500.
func (s *Suite) Table6(refCounts []int) ([]Table6Row, error) {
	key := fmt.Sprintf("table6:%v", refCounts)
	v, err := s.memo(key, func() (any, error) { return s.table6Impl(refCounts) })
	if err != nil {
		return nil, err
	}
	return v.([]Table6Row), nil
}

// frRounds is how many times Table6 times each arm's FR step.
const frRounds = 5

func (s *Suite) table6Impl(refCounts []int) ([]Table6Row, error) {
	benchmark := "tpch"
	pool, err := s.Pool(benchmark)
	if err != nil {
		return nil, err
	}
	scale := 2000
	if len(pool.Samples) < scale {
		scale = len(pool.Samples)
	}
	train, test := workload.Split(pool.Scale(scale), 0.8)
	ds := s.Dataset(benchmark)
	snaps, err := s.Snapshots(benchmark, core.FST, 2)
	if err != nil {
		return nil, err
	}
	cfgs := make([]core.Config, len(refCounts))
	for i, nref := range refCounts {
		cfgs[i] = s.config("qppnet", benchmark)
		cfgs[i].NumReferences = nref
	}

	// Measure the FR step in isolation (the paper's "runtime" column). The
	// |R| arms are timed serially on purpose: each row's RuntimeSec is a
	// wall-clock measurement of the FR step, and the paper's claim — FR
	// runtime grows with |R| — only holds when the measurements do not
	// contend with each other for cores. Inside one arm the step itself
	// prices its samples on the worker pool, so RuntimeSec is wall time
	// over the pool; -workers 1 gives the serial figure. The step is
	// deterministic, so the arms take turns for frRounds rounds and each
	// keeps its fastest time: contention from other processes on the box
	// then falls on every arm alike, not on whichever ran during a burst.
	// Each arm then trains on the Features it timed.
	fts := make([]core.Features, len(cfgs))
	frTimes := make([]time.Duration, len(cfgs))
	for round := 0; round < frRounds; round++ {
		for i, cfg := range cfgs {
			start := time.Now()
			if fts[i], err = snaps.Reduced(train, cfg); err != nil {
				return nil, err
			}
			if d := time.Since(start); round == 0 || d < frTimes[i] {
				frTimes[i] = d
			}
		}
	}

	var out []Table6Row
	rep := s.newReport()
	defer rep.flush()
	rep.printf("Table VI (tpch, scale=%d, QCFE(qpp)): reference-count robustness\n", scale)
	for i, cfg := range cfgs {
		res, err := core.TrainCtx(context.TODO(), ds, fts[i], train, cfg)
		if err != nil {
			return nil, err
		}
		sum := core.Evaluate(res.Model, test)
		row := Table6Row{
			NumReferences:  cfg.NumReferences,
			MeanQ:          sum.Mean,
			P95:            sum.P95,
			P90:            sum.P90,
			RuntimeSec:     frTimes[i].Seconds(),
			ReductionRatio: fts[i].ReductionRatio(),
		}
		out = append(out, row)
		rep.printf("  refs=%-4d mean=%.3f p95=%.3f p90=%.3f runtime=%.2fs reduction=%.1f%%\n",
			row.NumReferences, row.MeanQ, row.P95, row.P90, row.RuntimeSec, 100*row.ReductionRatio)
	}
	return out, nil
}
