package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/featred"
	"repro/internal/metrics"
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
	snaps, snapMs, err := s.Snapshots(benchmark)
	if err != nil {
		return nil, err
	}
	iters := s.trainIters(benchmark)

	// The |R| arms stay serial on purpose: each row's RuntimeSec is a
	// wall-clock measurement of the FR step, and the paper's claim — FR
	// runtime grows with |R| — only holds when the measurements do not
	// contend with each other for cores. Inside one arm the step itself
	// prices its samples on the worker pool, so RuntimeSec is wall time
	// over the pool; -workers 1 gives the serial figure.
	var out []Table6Row
	rep := s.newReport()
	defer rep.flush()
	rep.printf("Table VI (tpch, scale=%d, QCFE(qpp)): reference-count robustness\n", scale)
	for _, nref := range refCounts {
		cfg := core.DefaultConfig("qppnet")
		cfg.NumReferences = nref
		cfg.TrainIters = iters
		cfg.Seed = s.P.Seed
		cfg.Prebuilt = snaps
		cfg.PrebuiltMs = snapMs

		// Measure the FR step in isolation (the paper's "runtime" column).
		f := &encoding.Featurizer{Enc: encoding.New(ds.Schema), Snaps: snaps}
		start := time.Now()
		mask, _, err := core.Reduce(f, train, cfg)
		if err != nil {
			return nil, err
		}
		frTime := time.Since(start)

		res, err := core.Run(ds, s.Envs(), train, cfg)
		if err != nil {
			return nil, err
		}
		qe := core.QErrors(res.Model, test)
		row := Table6Row{
			NumReferences:  nref,
			MeanQ:          metrics.Mean(qe),
			P95:            metrics.Percentile(qe, 95),
			P90:            metrics.Percentile(qe, 90),
			RuntimeSec:     frTime.Seconds(),
			ReductionRatio: featred.ReductionRatio(mask),
		}
		out = append(out, row)
		rep.printf("  refs=%-4d mean=%.3f p95=%.3f p90=%.3f runtime=%.2fs reduction=%.1f%%\n",
			row.NumReferences, row.MeanQ, row.P95, row.P90, row.RuntimeSec, 100*row.ReductionRatio)
	}
	return out, nil
}
