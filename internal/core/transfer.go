package core

import (
	"fmt"
	"time"

	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/encoding"
	"repro/internal/mscn"
	"repro/internal/qppnet"
	"repro/internal/workload"
)

// TransferResult is an adapted model for a new environment (§V-E).
type TransferResult struct {
	Model       Estimator
	RetrainTime time.Duration
	SnapshotMs  float64 // collection cost of the new environment's snapshot
}

// cloneEstimator deep-copies a trained model's weights.
func cloneEstimator(e Estimator) (Estimator, error) {
	switch m := e.(type) {
	case *qppnet.Model:
		return m.Clone(), nil
	case *mscn.Model:
		return m.Clone(), nil
	case *Analytic:
		// Stateless: transferring the analytic baseline is the identity.
		return m, nil
	}
	return nil, fmt.Errorf("core: cannot clone estimator %T", e)
}

// Transfer implements the paper's §V-E hardware-transfer workflow: keep the
// basis model's weights and feature mask, replace only the feature snapshot
// with one fitted in the new environment, and retrain briefly on a small
// labeled set collected there. The paper's finding is that this reaches the
// accuracy of full retraining at ~25% of the training time.
func Transfer(basis *Result, ds *datagen.Dataset, newEnv *dbenv.Environment, train []workload.Sample, cfg Config, retrainIters int) (*TransferResult, error) {
	out := &TransferResult{}
	newF := &encoding.Featurizer{Enc: basis.F.Enc, Mask: basis.F.Mask}
	if basis.F.Snaps != nil {
		snaps, ms, err := BuildSnapshots(ds, []*dbenv.Environment{newEnv}, cfg)
		if err != nil {
			return nil, err
		}
		newF.Snaps = snaps
		out.SnapshotMs = ms
	}
	model, err := cloneEstimator(basis.Model)
	if err != nil {
		return nil, err
	}
	model.SetFeaturizer(newF)
	plans, ms := workload.PlansAndLabels(train)
	out.RetrainTime = model.Train(plans, ms, retrainIters)
	out.Model = model
	return out, nil
}

// TrainCurve trains a fresh (or transferred) model in chunks and records
// the test mean q-error after every chunk — the convergence series of
// Figure 8.
func TrainCurve(m Estimator, train, test []workload.Sample, totalIters, chunk int) []float64 {
	plans, ms := workload.PlansAndLabels(train)
	var curve []float64
	for done := 0; done < totalIters; done += chunk {
		step := chunk
		if done+step > totalIters {
			step = totalIters - done
		}
		m.Train(plans, ms, step)
		curve = append(curve, Evaluate(m, test).Mean)
	}
	return curve
}
