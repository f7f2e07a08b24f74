package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapCtx(ctx, 100, 4, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under a pre-cancelled context", ran.Load())
	}
	// Serial path (workers=1) honors cancellation too.
	if err := ForEachWorkerCtx(ctx, 10, 1, func(_, _ int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial err = %v, want context.Canceled", err)
	}
}

func TestMapCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	_, err := MapCtx(ctx, 10_000, 4, func(i int) (int, error) {
		if ran.Add(1) == 5 {
			cancel() // workers stop claiming from here on
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 10_000 {
		t.Fatalf("cancellation did not stop the claim loop (ran %d)", n)
	}
}

func TestMapCtxTaskErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := fmt.Errorf("task 3 failed")
	_, err := MapCtx(ctx, 100, 2, func(i int) (int, error) {
		if i == 3 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task error", err)
	}
}

func TestMapCtxCompletesWithoutCancel(t *testing.T) {
	out, err := MapCtx(context.Background(), 50, 4, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestDoCtx(t *testing.T) {
	var ran atomic.Int64
	err := DoCtx(context.Background(),
		2,
		func() error { ran.Add(1); return nil },
		func() error { ran.Add(1); return nil },
	)
	if err != nil || ran.Load() != 2 {
		t.Fatalf("err=%v ran=%d", err, ran.Load())
	}
}
