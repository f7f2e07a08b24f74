package core

import (
	"fmt"

	"repro/internal/mscn"
	"repro/internal/qppnet"
	"repro/internal/workload"
)

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
// basis model's weights, move them onto ft — the basis Features refitted in
// the new environment by ForEnvCtx, which keeps the encoder and mask and
// swaps only the snapshot — and retrain briefly on a small labeled set
// collected there. The result's TrainTime is the retraining time. The
// basis keeps its weights, but the clone draws its sampler seed from the
// basis, so each Transfer changes the minibatch order of the next. The
// paper's finding is that this reaches the accuracy of full retraining at
// ~25% of the training time.
func Transfer(basis *Result, ft Features, train []workload.Sample, retrainIters int) (*Result, error) {
	if basis.F == nil || ft.F == nil || ft.F.Dim() != basis.F.Dim() {
		return nil, fmt.Errorf("core: transfer needs features as wide as the basis model's")
	}
	model, err := cloneEstimator(basis.Model)
	if err != nil {
		return nil, err
	}
	model.SetFeaturizer(ft.F)
	plans, ms := workload.PlansAndLabels(train)
	return &Result{Model: model, Features: ft, TrainTime: model.Train(plans, ms, retrainIters)}, nil
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
