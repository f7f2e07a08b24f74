// Package parallel is the bounded worker pool behind the labeling
// pipeline: workload collection, feature-snapshot labeling, and the
// experiments suite all fan their (environment × query) work out through
// it, and featred's difference propagation fans out its samples.
//
// Every helper here is deterministic by construction: tasks are identified
// by index, results land in index-addressed slots, and reductions happen
// in index order after the pool drains. Combined with the engine's
// explicit noise sequencing (engine.Executor.ExecuteSeq), this makes the
// labeling pipeline produce bit-identical output at any worker count —
// the regression guarantee tested in workload's determinism test.
//
// The process-wide default worker count is GOMAXPROCS; cmd/qcfe-bench
// exposes it as -workers. A count of 1 short-circuits to a plain loop, so
// single-core machines pay no goroutine overhead.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers overrides the process-wide default when positive.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker count used when a
// call site passes workers <= 0. Passing n <= 0 restores the GOMAXPROCS
// default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the process-wide default worker count.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Workers resolves a requested worker count: n itself when positive,
// otherwise the process default.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return DefaultWorkers()
}

// ForEachWorkerCtx runs fn(w, i) for every i in [0, n) on at most
// `workers` goroutines (<= 0 selects the process default) and returns
// when every call has finished. fn must write its result into
// caller-owned, index-i state — that is what keeps the fan-in
// deterministic. w is the worker identity, in [0, Workers(workers)):
// callers use it to keep per-goroutine state (e.g. one engine.Executor
// per worker) without locks.
//
// Cancellation is cooperative: every worker checks ctx before claiming
// each task and stops claiming once ctx is cancelled. Tasks already
// running are allowed to finish — fn is never interrupted mid-call — so
// when ForEachWorkerCtx returns, no fn is still executing. It returns
// ctx's error when cancellation kept at least the task claim loop from
// completing, nil when every task ran.
func ForEachWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(g)
	}
	wg.Wait()
	if int(next.Load()) < n {
		return ctx.Err()
	}
	return nil
}

// MapCtx runs fn for every index and returns the results in index order.
// If any call fails, MapCtx returns the error of the lowest failing index
// (after every call has finished), so the reported failure does not
// depend on scheduling. Workers stop claiming tasks once ctx is cancelled
// and MapCtx then returns ctx's error; a task error takes precedence over
// it, so error reporting stays deterministic.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ctxErr := ForEachWorkerCtx(ctx, n, workers, func(_, i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return out, nil
}

// DoCtx runs every task function concurrently on the pool and returns
// the error of the lowest failing index. It is MapCtx for heterogeneous
// jobs — the experiments suite uses it to run independent figure/table
// runners side by side. Tasks not yet started when ctx is cancelled never
// start, and DoCtx then returns ctx's error (unless an earlier-indexed
// task failed first).
func DoCtx(ctx context.Context, workers int, tasks ...func() error) error {
	_, err := MapCtx(ctx, len(tasks), workers, func(i int) (struct{}, error) {
		return struct{}{}, tasks[i]()
	})
	return err
}
