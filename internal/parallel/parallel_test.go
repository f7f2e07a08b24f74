package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 100
		hits := make([]int32, n)
		ForEachWorkerCtx(context.Background(), n, workers, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	ran := false
	ForEachWorkerCtx(context.Background(), 0, 4, func(_, _ int) { ran = true })
	ForEachWorkerCtx(context.Background(), -3, 4, func(_, _ int) { ran = true })
	if ran {
		t.Fatal("fn ran for empty range")
	}
}

func TestForEachWorkerIdentity(t *testing.T) {
	const n, workers = 200, 4
	owner := make([]int32, n)
	ForEachWorkerCtx(context.Background(), n, workers, func(w, i int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of range", w)
		}
		atomic.StoreInt32(&owner[i], int32(w)+1)
	})
	for i, o := range owner {
		if o == 0 {
			t.Fatalf("index %d never ran", i)
		}
	}
}

func TestMapOrdersResults(t *testing.T) {
	out, err := MapCtx(context.Background(), 50, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := MapCtx(context.Background(), 20, workers, func(i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, fmt.Errorf("fail-%d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail-7" {
			t.Fatalf("workers=%d: err = %v, want fail-7", workers, err)
		}
	}
}

func TestDoRunsAllTasks(t *testing.T) {
	var a, b atomic.Bool
	sentinel := errors.New("boom")
	err := DoCtx(context.Background(), 4,
		func() error { a.Store(true); return nil },
		func() error { return sentinel },
		func() error { b.Store(true); return nil },
	)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if !a.Load() || !b.Load() {
		t.Fatal("tasks after a failure did not run")
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatal("explicit count not honored")
	}
	SetDefaultWorkers(3)
	defer SetDefaultWorkers(0)
	if Workers(0) != 3 || DefaultWorkers() != 3 {
		t.Fatal("default override not honored")
	}
	SetDefaultWorkers(0)
	if DefaultWorkers() < 1 {
		t.Fatal("GOMAXPROCS default must be >= 1")
	}
}
