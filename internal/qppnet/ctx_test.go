package qppnet

import (
	"context"
	"errors"
	"testing"
)

// stepCtx is a context whose Err flips to Canceled after `limit` checks.
// TrainCtx polls Err exactly once per minibatch iteration, so limit
// controls precisely how many iterations run.
type stepCtx struct {
	context.Context
	calls, limit int
}

func (c *stepCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestTrainCtxCancelMidRun locks in the cancellation contract: a cancel
// that lands mid-training stops the loop at an iteration boundary,
// leaving the weights exactly as if training had been asked for that
// many iterations — never a torn, half-applied optimizer step.
func TestTrainCtxCancelMidRun(t *testing.T) {
	plans, ms := synthPlans(40, 4)
	const ranIters = 5

	cancelled := New(testFeaturizer(), 5)
	if _, err := cancelled.TrainCtx(&stepCtx{Context: context.Background(), limit: ranIters}, plans, ms, 30); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	ref := New(testFeaturizer(), 5)
	ref.TrainCtx(context.Background(), plans, ms, ranIters)
	weightsEqual(t, cancelled, ref, "cancelled-at-5-vs-trained-5")
}
