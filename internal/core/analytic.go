package core

import (
	"context"
	"time"

	"repro/internal/catalog"
	"repro/internal/encoding"
	"repro/internal/pgcost"
	"repro/internal/planner"
)

// Analytic adapts the PostgreSQL-style analytic cost model (the paper's
// PGSQL baseline) to the Estimator interface, making "analytic" a
// first-class pipeline model next to "qppnet" and "mscn": it can be
// fitted (a no-op — the model has no trainable state), evaluated,
// saved, loaded, and served through the same front ends. Predictions
// depend only on the plan and the dataset statistics, never on the
// featurizer or environment — which is exactly the blindness the paper's
// Figure 1 quantifies.
type Analytic struct {
	model *pgcost.Model
}

// NewAnalytic builds the analytic estimator over a dataset's statistics.
func NewAnalytic(stats *catalog.Stats) *Analytic {
	return &Analytic{model: pgcost.New(stats)}
}

// Name implements Estimator.
func (a *Analytic) Name() string { return "analytic" }

// Train implements Estimator as a no-op: the analytic model has no
// trainable parameters.
func (a *Analytic) Train(_ []*planner.Node, _ []float64, _ int) time.Duration { return 0 }

// TrainCtx implements Estimator as a no-op.
func (a *Analytic) TrainCtx(ctx context.Context, _ []*planner.Node, _ []float64, _ int) (time.Duration, error) {
	return 0, ctx.Err()
}

// PredictBatch prices every plan with the analytic cost formula, each
// independently of the others.
func (a *Analytic) PredictBatch(roots []*planner.Node) []float64 {
	if len(roots) == 0 {
		return nil
	}
	out := make([]float64, len(roots))
	for i, r := range roots {
		out[i] = a.model.EstimateMs(r)
	}
	return out
}

// PredictFeaturizedBatch implements Estimator; the analytic model reads
// the plan, not the cached feature rows, so it prices the roots directly.
func (a *Analytic) PredictFeaturizedBatch(fps []*encoding.FeaturizedPlan) []float64 {
	if len(fps) == 0 {
		return nil
	}
	out := make([]float64, len(fps))
	for i, fp := range fps {
		out[i] = a.model.EstimateMs(fp.Root)
	}
	return out
}

// SetFeaturizer implements Estimator; the analytic model reads no
// features, so swapping the featurizer is a no-op.
func (a *Analytic) SetFeaturizer(*encoding.Featurizer) {}
