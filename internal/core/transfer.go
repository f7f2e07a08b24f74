package core

import (
	"context"
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
// basis is only read. ctx is checked between retraining minibatches; a
// cancelled transfer returns ctx's error and no Result. The paper's
// finding is that this reaches the accuracy of full retraining at ~25% of
// the training time.
func Transfer(ctx context.Context, basis *Result, ft Features, train []workload.Sample, retrainIters int) (*Result, error) {
	if basis.F == nil || ft.F == nil || ft.F.Dim() != basis.F.Dim() {
		return nil, fmt.Errorf("core: transfer needs features as wide as the basis model's")
	}
	model, err := cloneEstimator(basis.Model)
	if err != nil {
		return nil, err
	}
	model.SetFeaturizer(ft.F)
	plans, ms := workload.PlansAndLabels(train)
	trainTime, err := model.TrainCtx(ctx, plans, ms, retrainIters)
	if err != nil {
		return nil, fmt.Errorf("core: retraining cancelled after %v: %w", trainTime, err)
	}
	return &Result{Model: model, Features: ft, TrainTime: trainTime}, nil
}

// TrainCurve trains a fresh (or transferred) model in chunks and records
// the test mean q-error after every chunk — the convergence series of
// Figure 8. Each chunk is one TrainCtx call, so a curve of one chunk ends
// at the model TrainCtx gives for the whole budget. ctx is checked between
// minibatches; a cancelled curve returns ctx's error and no curve.
func TrainCurve(ctx context.Context, m Estimator, train, test []workload.Sample, totalIters, chunk int) ([]float64, error) {
	plans, ms := workload.PlansAndLabels(train)
	var curve []float64
	for done := 0; done < totalIters; done += chunk {
		step := chunk
		if done+step > totalIters {
			step = totalIters - done
		}
		if _, err := m.TrainCtx(ctx, plans, ms, step); err != nil {
			return nil, fmt.Errorf("core: training curve cancelled after %d iterations: %w", done, err)
		}
		curve = append(curve, Evaluate(m, test).Mean)
	}
	return curve, nil
}
