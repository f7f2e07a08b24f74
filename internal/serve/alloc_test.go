package serve

import (
	"context"
	"testing"
	"time"

	qcfe "repro"
)

// TestEstimateWarmZeroAlloc pins the tentpole invariant at the serving
// layer: once a query's prediction is resident (and the cache shard's
// snapshot published), Server.Estimate answers it with zero heap
// allocations — environment resolution, the cache probe (struct key,
// lock-free snapshot read), counters, and monitor dispatch included.
// The second pass repeats the measurement after a hot swap to a
// Save→Load twin of the serving estimator: identical bytes, identical
// generation, so the swap must leave the entry resident and the hit
// allocation-free — a swap that chilled the cache would send the request
// to the batcher this test never starts.
func TestEstimateWarmZeroAlloc(t *testing.T) {
	est := cachedCopy(t)
	env := est.Environments()[0]
	sql := testSQL(0)
	srv := New(est, Options{})
	// No srv.Run: a warm hit never touches the queue, so a batcherless
	// server doubles as proof the fast path stayed queue-free. A request
	// that did enqueue could only wait, so the deadline turns a lost hit
	// into a failure instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	want, err := est.EstimateSQL(env, sql) // warm the prediction tier
	if err != nil {
		t.Fatal(err)
	}
	measure := func(when string) {
		t.Helper()
		// Drain the cache's publication window so the measured hits read the
		// lock-free snapshot (see qcache's TestPredictionHitZeroAlloc).
		for i := 0; i < 64; i++ {
			if got, err := srv.Estimate(ctx, env.ID, sql); err != nil || got != want {
				t.Fatalf("%s: warm-up hit = (%v, %v), want (%v, nil)", when, got, err, want)
			}
		}
		allocs := testing.AllocsPerRun(1000, func() {
			got, err := srv.Estimate(ctx, env.ID, sql)
			if err != nil || got != want {
				t.Fatalf("%s: warm hit = (%v, %v), want (%v, nil)", when, got, err, want)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: warm Estimate allocates %.2f allocs/op, want 0", when, allocs)
		}
	}
	measure("before swap")
	srv.SwapEstimator(qcfe.SwapEstimator(est, reloaded(t, est)))
	measure("after swap to an identical artifact")
	if st := srv.Stats(); st.Swaps != 1 || st.CacheHits != st.Requests {
		t.Fatalf("stats = %+v, want 1 swap and every request a cache hit", st)
	}
}
