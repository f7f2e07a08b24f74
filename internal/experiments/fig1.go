package experiments

import (
	"context"

	"repro/internal/dbenv"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Fig1Cell is the average cost of the probe workload under one environment.
type Fig1Cell struct {
	Benchmark string
	EnvID     int
	AvgMs     float64
}

// Figure1 reproduces the paper's Figure 1: the average cost of the probe
// workload (1000 queries at paper scale; Params.Fig1Queries) in TPCH and
// Sysbench under five database environments, demonstrating the 2–3×
// spread that motivates the feature snapshot.
func (s *Suite) Figure1() ([]Fig1Cell, error) {
	v, err := s.memo("fig1", func() (any, error) { return s.figure1Impl() })
	if err != nil {
		return nil, err
	}
	return v.([]Fig1Cell), nil
}

func (s *Suite) figure1Impl() ([]Fig1Cell, error) {
	queries := s.P.fig1Queries()
	envs := dbenv.SampleSet(5, s.P.Seed+17)
	rep := s.newReport()
	defer rep.flush()
	rep.printf("Figure 1: average query cost (ms) of %d queries under 5 environments\n", queries)
	// One cell per (benchmark, environment). Each benchmark's full (env ×
	// query) grid flattens into a single pool fan-out; per-query times land
	// in index-addressed slots, so the cell averages are deterministic.
	var cells []Fig1Cell
	for _, bench := range []string{"tpch", "sysbench"} {
		ds := s.Dataset(bench)
		var tasks []engine.PoolTask
		for _, env := range envs {
			gen := workload.NewGenerator(ds, s.P.Seed+int64(env.ID))
			sqls, err := gen.Generate(workload.TemplatesFor(bench), queries)
			if err != nil {
				return nil, err
			}
			for qi, sql := range sqls {
				tasks = append(tasks, engine.PoolTask{Env: env, Seq: int64(qi + 1), SQL: sql})
			}
		}
		results, err := engine.ExecutePoolCtx(context.TODO(), ds.Schema, ds.Stats, ds.DB, tasks)
		if err != nil {
			return nil, err
		}
		for ei, env := range envs {
			var times []float64
			for ti := ei * queries; ti < (ei+1)*queries; ti++ {
				if results[ti].OK {
					times = append(times, results[ti].Ms)
				}
			}
			cells = append(cells, Fig1Cell{Benchmark: bench, EnvID: env.ID, AvgMs: metrics.Mean(times)})
		}
	}
	for _, cell := range cells {
		rep.printf("  %-9s env#%d  avg=%.3f ms\n", cell.Benchmark, cell.EnvID, cell.AvgMs)
	}
	return cells, nil
}

// Fig1Spread summarizes max/min average cost per benchmark — the paper's
// "2 times in TPCH and 3 times in Sysbench" observation.
func Fig1Spread(cells []Fig1Cell) map[string]float64 {
	min := map[string]float64{}
	max := map[string]float64{}
	for _, c := range cells {
		if v, ok := min[c.Benchmark]; !ok || c.AvgMs < v {
			min[c.Benchmark] = c.AvgMs
		}
		if v, ok := max[c.Benchmark]; !ok || c.AvgMs > v {
			max[c.Benchmark] = c.AvgMs
		}
	}
	out := map[string]float64{}
	for b := range min {
		if min[b] > 0 {
			out[b] = max[b] / min[b]
		}
	}
	return out
}
