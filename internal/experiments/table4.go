package experiments

import (
	"context"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/pgcost"
	"repro/internal/workload"
)

// Table4Row is one cell group of the paper's Table IV: a (benchmark, model,
// scale) triple with its pearson coefficient, mean q-error, and training
// time.
type Table4Row struct {
	Benchmark string
	Model     string // PGSQL, MSCN, QPPNet, QCFE(mscn), QCFE(qpp)
	Scale     int
	Pearson   float64
	MeanQ     float64
	TrainSec  float64
	// QErrors keeps the per-query test q-errors for Figure 5's box plots.
	QErrors []float64
}

// table4Methods lists the five compared methods in paper order.
var table4Methods = []string{"PGSQL", "QCFE(mscn)", "QCFE(qpp)", "MSCN", "QPPNet"}

// Table4 reproduces the paper's Table IV for one benchmark: the
// time-accuracy efficiency of PGSQL, MSCN, QPPNet, QCFE(mscn), and
// QCFE(qpp) across labeled-set scales. The returned rows also carry the
// per-query q-errors, which Figure5 consumes.
func (s *Suite) Table4(benchmark string) ([]Table4Row, error) {
	v, err := s.memo("table4:"+benchmark, func() (any, error) { return s.table4Impl(benchmark) })
	if err != nil {
		return nil, err
	}
	return v.([]Table4Row), nil
}

func (s *Suite) table4Impl(benchmark string) ([]Table4Row, error) {
	pool, err := s.Pool(benchmark)
	if err != nil {
		return nil, err
	}
	ds := s.Dataset(benchmark)
	// The (scale × method) grid cells are independent model fits over
	// read-only pools, so they run concurrently; rows come back in grid
	// order and each fit is internally seeded, keeping results identical to
	// a serial run. QCFE(mscn) and QCFE(qpp) at one scale train on one
	// shared Features, and both report its reduction time. TrainSec is
	// each cell's own wall-clock fit time and inflates under contention
	// when cells share cores — the relative ordering between methods
	// survives, but to reproduce the paper's absolute training-time column
	// run with -workers 1.
	type cell struct {
		scale  int
		method string
	}
	var grid []cell
	for _, scale := range s.P.Scales {
		for _, method := range table4Methods {
			grid = append(grid, cell{scale: scale, method: method})
		}
	}
	rows, err := parallel.MapCtx(context.TODO(), len(grid), 0, func(gi int) (Table4Row, error) {
		scale, method := grid[gi].scale, grid[gi].method
		train, test := workload.Split(pool.Scale(scale), 0.8)
		row := Table4Row{Benchmark: benchmark, Model: method, Scale: scale}
		switch method {
		case "PGSQL":
			start := time.Now()
			model := pgcost.New(ds.Stats)
			actual := make([]float64, len(test))
			pred := make([]float64, len(test))
			qe := make([]float64, len(test))
			for i, smp := range test {
				actual[i] = smp.Ms
				pred[i] = model.EstimateMs(smp.Plan)
				qe[i] = metrics.QError(actual[i], pred[i])
			}
			sum := metrics.Summarize(actual, pred)
			row.Pearson, row.MeanQ = sum.Pearson, sum.Mean
			row.TrainSec = time.Since(start).Seconds()
			row.QErrors = qe
		default:
			cfg := s.config(methodModel[method], benchmark)
			var res *core.Result
			var err error
			if strings.HasPrefix(method, "QCFE") {
				var ft core.Features
				if ft, err = s.qcfeFeatures(benchmark, scale); err == nil {
					res, err = core.TrainCtx(context.TODO(), ds, ft, train, cfg)
				}
			} else {
				cfg.UseSnapshot, cfg.Reduction = false, core.ReduceNone
				res, err = core.RunCtx(context.TODO(), ds, s.Envs(), train, cfg)
			}
			if err != nil {
				return Table4Row{}, err
			}
			sum := core.Evaluate(res.Model, test)
			row.Pearson, row.MeanQ = sum.Pearson, sum.Mean
			row.TrainSec = res.TrainTime.Seconds() + res.ReductionTime.Seconds()
			row.QErrors = core.QErrors(res.Model, test)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	rep := s.newReport()
	defer rep.flush()
	rep.printf("Table IV (%s): pearson / mean q-error / training time\n", benchmark)
	for _, row := range rows {
		rep.printf("  scale=%-6d %-11s pearson=%.3f mean=%.3f time=%.2fs\n",
			row.Scale, row.Model, row.Pearson, row.MeanQ, row.TrainSec)
	}
	return rows, nil
}

// methodModel maps a learned Table IV method to its downstream model. The
// QCFE methods train on the shared QCFE Features; MSCN and QPPNet run
// without snapshot or reduction.
var methodModel = map[string]string{
	"QCFE(mscn)": "mscn", "QCFE(qpp)": "qppnet", "MSCN": "mscn", "QPPNet": "qppnet",
}

// Fig5Row is one box of Figure 5: the q-error quartiles of one method at
// one scale on one benchmark.
type Fig5Row struct {
	Benchmark string
	Model     string
	Scale     int
	P25       float64
	Median    float64
	P75       float64
	P90       float64
}

// Figure5 reproduces the q-error variance box plots of Figure 5 from the
// Table IV runs (box boundaries at the 25th/50th/75th percentiles).
func (s *Suite) Figure5(benchmark string) ([]Fig5Row, error) {
	v, err := s.memo("fig5:"+benchmark, func() (any, error) { return s.figure5Impl(benchmark) })
	if err != nil {
		return nil, err
	}
	return v.([]Fig5Row), nil
}

func (s *Suite) figure5Impl(benchmark string) ([]Fig5Row, error) {
	rows, err := s.Table4(benchmark)
	if err != nil {
		return nil, err
	}
	var out []Fig5Row
	rep := s.newReport()
	defer rep.flush()
	rep.printf("Figure 5 (%s): q-error quartiles\n", benchmark)
	for _, r := range rows {
		if r.Model == "PGSQL" {
			continue // the paper's Figure 5 plots the learned estimators
		}
		f := Fig5Row{
			Benchmark: r.Benchmark, Model: r.Model, Scale: r.Scale,
			P25:    metrics.Percentile(r.QErrors, 25),
			Median: metrics.Percentile(r.QErrors, 50),
			P75:    metrics.Percentile(r.QErrors, 75),
			P90:    metrics.Percentile(r.QErrors, 90),
		}
		out = append(out, f)
		rep.printf("  scale=%-6d %-11s p25=%.3f p50=%.3f p75=%.3f p90=%.3f\n",
			f.Scale, f.Model, f.P25, f.Median, f.P75, f.P90)
	}
	return out, nil
}
