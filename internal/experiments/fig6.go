package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// Fig6Row is one ablation arm of Figure 6 on one benchmark.
type Fig6Row struct {
	Benchmark string
	Variant   string // FSO, FST, FSO+FR, FSO+GD, FSO+Greedy
	MeanQ     float64
	Median    float64
	P90       float64
	Pearson   float64
}

// fig6Scale is the labeled-set size of the paper's ablation (Figure 6 uses
// scale = 4000); shrunk automatically when the pool is smaller.
const fig6Scale = 4000

// Figure6 reproduces the ablation study: the QPPNet model under five QCFE
// design choices — snapshot from original queries (FSO), snapshot from
// simplified templates (FST), and FSO combined with the three reduction
// methods (FR, GD, Greedy).
func (s *Suite) Figure6(benchmark string) ([]Fig6Row, error) {
	v, err := s.memo("fig6:"+benchmark, func() (any, error) { return s.figure6Impl(benchmark) })
	if err != nil {
		return nil, err
	}
	return v.([]Fig6Row), nil
}

func (s *Suite) figure6Impl(benchmark string) ([]Fig6Row, error) {
	pool, err := s.Pool(benchmark)
	if err != nil {
		return nil, err
	}
	scale := fig6Scale
	if len(pool.Samples) < scale {
		scale = len(pool.Samples)
	}
	train, test := workload.Split(pool.Scale(scale), 0.8)
	ds := s.Dataset(benchmark)

	variants := []struct {
		name      string
		mode      core.SnapshotMode
		reduction core.ReductionMethod
	}{
		{"FSO", core.FSO, core.ReduceNone},
		{"FST", core.FST, core.ReduceNone},
		{"FSO+FR", core.FSO, core.ReduceFR},
		{"FSO+GD", core.FSO, core.ReduceGD},
		{"FSO+Greedy", core.FSO, core.ReduceGreedy},
	}

	// The five ablation arms are independent fits over the shared read-only
	// pool; they run concurrently and report in paper order. The four FSO
	// arms reduce from one snapshot-only Features.
	out, err := parallel.MapCtx(context.TODO(), len(variants), 0, func(vi int) (Fig6Row, error) {
		v := variants[vi]
		cfg := s.config("qppnet", benchmark)
		cfg.Reduction = v.reduction
		snaps, err := s.Snapshots(benchmark, v.mode, cfg.TemplateScale)
		if err != nil {
			return Fig6Row{}, err
		}
		ft, err := snaps.Reduced(train, cfg)
		if err != nil {
			return Fig6Row{}, err
		}
		res, err := core.TrainCtx(context.TODO(), ds, ft, train, cfg)
		if err != nil {
			return Fig6Row{}, err
		}
		sum := core.Evaluate(res.Model, test)
		return Fig6Row{Benchmark: benchmark, Variant: v.name,
			MeanQ: sum.Mean, Median: sum.Median, P90: sum.P90, Pearson: sum.Pearson}, nil
	})
	if err != nil {
		return nil, err
	}
	rep := s.newReport()
	defer rep.flush()
	rep.printf("Figure 6 (%s, scale=%d, qppnet): ablation of QCFE design choices\n", benchmark, scale)
	for _, row := range out {
		rep.printf("  %-10s mean=%.3f median=%.3f p90=%.3f pearson=%.3f\n",
			row.Variant, row.MeanQ, row.Median, row.P90, row.Pearson)
	}
	return out, nil
}
