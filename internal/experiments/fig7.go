package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/featred"
	"repro/internal/parallel"
	"repro/internal/planner"
	"repro/internal/workload"
)

// Fig7Row reports, for one operator type, how many features each reduction
// method prunes — the per-operator bars of the paper's Figure 7.
type Fig7Row struct {
	Operator   string
	TotalDim   int
	DropFR     int
	DropGD     int
	DropGreedy int
}

// Figure7 reproduces the feature-reduction comparison on TPC-H: the
// operator-level labeled set is partitioned by operator type (QPPNet's
// per-operator networks each see their own feature space), each partition
// gets its own probe model, and the three methods report how many
// dimensions they drop.
func (s *Suite) Figure7() ([]Fig7Row, error) {
	v, err := s.memo("fig7", func() (any, error) { return s.figure7Impl() })
	if err != nil {
		return nil, err
	}
	return v.([]Fig7Row), nil
}

func (s *Suite) figure7Impl() ([]Fig7Row, error) {
	benchmark := "tpch"
	pool, err := s.Pool(benchmark)
	if err != nil {
		return nil, err
	}
	snaps, err := s.Snapshots(benchmark, core.FST, 2)
	if err != nil {
		return nil, err
	}
	scale := fig6Scale
	if len(pool.Samples) < scale {
		scale = len(pool.Samples)
	}
	train, _ := workload.Split(pool.Scale(scale), 0.8)
	full := core.OperatorDataset(snaps.F, train)

	cfg := core.DefaultConfig("qppnet")
	cfg.Seed = s.P.Seed

	// One probe model per operator type; the probes are independent and run
	// concurrently. Operators too rare to probe return a nil row.
	ops := planner.AllOpTypes()
	probed, err := parallel.MapCtx(context.TODO(), len(ops), 0, func(oi int) (*Fig7Row, error) {
		op := ops[oi]
		sub := filterByOp(full, op)
		if len(sub.X) < 30 {
			return nil, nil // operator too rare in the workload to probe
		}
		sub = sub.Subsample(cfg.ProbeSamples, cfg.Seed)
		probe := featred.TrainProbe(sub, 32, cfg.ProbeEpochs, cfg.Seed)

		frMask := featred.MaskFromScores(featred.DiffPropScores(probe, sub.X, cfg.NumReferences, cfg.Seed))
		gdMask := featred.MaskFromScores(featred.GradientScores(probe, sub.X))
		greedyMask := featred.GreedyReduce(probe, sub.Subsample(300, cfg.Seed))

		return &Fig7Row{
			Operator:   op.String(),
			TotalDim:   sub.Dim(),
			DropFR:     sub.Dim() - featred.CountKept(frMask),
			DropGD:     sub.Dim() - featred.CountKept(gdMask),
			DropGreedy: sub.Dim() - featred.CountKept(greedyMask),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Fig7Row
	rep := s.newReport()
	defer rep.flush()
	rep.printf("Figure 7 (tpch): features dropped per operator by Greedy / GD / FR\n")
	for _, row := range probed {
		if row == nil {
			continue
		}
		out = append(out, *row)
		rep.printf("  %-12s dim=%d  greedy=%d  gd=%d  fr=%d\n",
			row.Operator, row.TotalDim, row.DropGreedy, row.DropGD, row.DropFR)
	}
	return out, nil
}

// filterByOp selects the operator-dataset rows whose op one-hot matches op.
// The op one-hot occupies the first NumOpTypes dimensions of the encoding.
func filterByOp(d *featred.Dataset, op planner.OpType) *featred.Dataset {
	out := &featred.Dataset{Names: d.Names}
	for i, x := range d.X {
		if x[int(op)] == 1 {
			out.X = append(out.X, x)
			out.Y = append(out.Y, d.Y[i])
		}
	}
	return out
}

// ReductionSummary aggregates Figure 7 into the paper's headline ratios
// (Greedy ≈1.2%, GD and FR ≈41% on average).
func ReductionSummary(rows []Fig7Row) (greedy, gd, fr float64) {
	var dim, g, d, f int
	for _, r := range rows {
		dim += r.TotalDim
		g += r.DropGreedy
		d += r.DropGD
		f += r.DropFR
	}
	if dim == 0 {
		return 0, 0, 0
	}
	return float64(g) / float64(dim), float64(d) / float64(dim), float64(f) / float64(dim)
}
