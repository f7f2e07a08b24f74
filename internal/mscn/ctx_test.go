package mscn

import (
	"context"
	"errors"
	"testing"
)

// stepCtx is a context whose Err flips to Canceled after `limit` checks.
// TrainCtx polls Err exactly once per minibatch iteration, so limit
// controls precisely how many iterations run — which makes the
// cancellation-consistency assertion deterministic.
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
	plans, ms := synthPlans(60, 4)
	const ranIters = 7

	cancelled := New(testFeaturizer(), 5)
	if _, err := cancelled.TrainCtx(&stepCtx{Context: context.Background(), limit: ranIters}, plans, ms, 50); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	ref := New(testFeaturizer(), 5)
	ref.TrainCtx(context.Background(), plans, ms, ranIters)
	weightsEqual(t, cancelled, ref, "cancelled-at-7-vs-trained-7")

	// An already-cancelled context stops before the first iteration.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	untouched := New(testFeaturizer(), 5)
	fresh := New(testFeaturizer(), 5)
	if _, err := untouched.TrainCtx(ctx, plans, ms, 50); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	weightsEqual(t, untouched, fresh, "pre-cancelled-vs-fresh")
}
