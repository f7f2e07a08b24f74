package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// Table5Row is one cell of the paper's Table V: the q-error and snapshot
// collection cost of FSO versus FST at a given template scale.
type Table5Row struct {
	Benchmark    string
	Variant      string // "FSO" or "FST(scale)"
	Scale        int    // template scale (0 for FSO)
	MeanQ        float64
	CollectionMs float64 // simulated labeling cost of the snapshot
}

// Table5 reproduces the template-scale robustness study: on TPC-H and
// job-light, the FSO snapshot (original queries) is compared with FST
// snapshots at increasing template scales; FST should reach FSO-level
// q-error at a fraction of the collection cost.
func (s *Suite) Table5(benchmark string, scales []int) ([]Table5Row, error) {
	key := fmt.Sprintf("table5:%s:%v", benchmark, scales)
	v, err := s.memo(key, func() (any, error) { return s.table5Impl(benchmark, scales) })
	if err != nil {
		return nil, err
	}
	return v.([]Table5Row), nil
}

func (s *Suite) table5Impl(benchmark string, scales []int) ([]Table5Row, error) {
	pool, err := s.Pool(benchmark)
	if err != nil {
		return nil, err
	}
	n := fig6Scale
	if len(pool.Samples) < n {
		n = len(pool.Samples)
	}
	train, test := workload.Split(pool.Scale(n), 0.8)
	ds := s.Dataset(benchmark)

	runWith := func(variant string, mode core.SnapshotMode, tscale int) (Table5Row, error) {
		snaps, err := s.Snapshots(benchmark, mode, tscale)
		if err != nil {
			return Table5Row{}, err
		}
		res, err := core.TrainCtx(context.TODO(), ds, snaps, train, s.config("qppnet", benchmark))
		if err != nil {
			return Table5Row{}, err
		}
		sum := core.Evaluate(res.Model, test)
		return Table5Row{
			Benchmark: benchmark, Variant: variant, Scale: tscale,
			MeanQ: sum.Mean, CollectionMs: res.SnapshotMs,
		}, nil
	}

	// FSO plus one arm per FST scale: independent fits, run concurrently.
	out, err := parallel.MapCtx(context.TODO(), 1+len(scales), 0, func(i int) (Table5Row, error) {
		if i == 0 {
			return runWith("FSO", core.FSO, 0)
		}
		return runWith("FST", core.FST, scales[i-1])
	})
	if err != nil {
		return nil, err
	}
	rep := s.newReport()
	defer rep.flush()
	rep.printf("Table V (%s): FSO vs FST template scales (mean q-error / collection cost)\n", benchmark)
	for _, row := range out {
		if row.Variant == "FSO" {
			rep.printf("  %-8s mean=%.3f collect=%.1f ms\n", row.Variant, row.MeanQ, row.CollectionMs)
		} else {
			rep.printf("  FST(%d)   mean=%.3f collect=%.1f ms\n", row.Scale, row.MeanQ, row.CollectionMs)
		}
	}
	return out, nil
}
