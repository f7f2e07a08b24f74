package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	qcfe "repro"
)

// cachedCopy gives a test its own estimator object (Save→Load of the
// shared fixture, so no extra training) with a fresh query cache
// attached — the shared fixture stays cacheless, so tests that count
// priced misses see every request priced.
func cachedCopy(t *testing.T) *qcfe.CostEstimator {
	t.Helper()
	var buf bytes.Buffer
	if err := testEstimator(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	est, err := qcfe.LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	est.AttachCache(qcfe.NewQueryCache(qcfe.CacheOptions{Shards: 8, Capacity: 1024}))
	return est
}

// warmOnly serves an estimator's warm prediction-tier hits and fails the
// test if the server asks it to price anything: behind it, a correct
// answer proves the request never left the warm path. It keeps the
// estimator's Cache method, so the server still attaches its tier
// histograms.
type warmOnly struct {
	*qcfe.CostEstimator
	t *testing.T
}

func (w warmOnly) EstimateSQL(_ *qcfe.Environment, sql string) (float64, error) {
	w.t.Errorf("EstimateSQL(%q): a warm hit was priced", sql)
	return 0, errors.New("warmOnly: priced")
}

func (w warmOnly) EstimateSQLBatchCtx(_ context.Context, _ *qcfe.Environment, sqls []string) ([]float64, error) {
	w.t.Errorf("EstimateSQLBatchCtx(%q): a warm hit was priced", sqls)
	return nil, errors.New("warmOnly: priced")
}

// TestWarmHitSkipsGather is the short-circuit regression test: a warm
// prediction-tier hit must be answered by the cache probe alone, never
// priced.
func TestWarmHitSkipsGather(t *testing.T) {
	est := cachedCopy(t)
	env := est.Environments()[0]
	sql := testSQL(0)
	want, err := est.EstimateSQL(env, sql) // warms the prediction tier
	if err != nil {
		t.Fatal(err)
	}

	srv := New(warmOnly{est, t}, Options{})
	got, err := srv.Estimate(context.Background(), env.ID, sql)
	if err != nil {
		t.Fatalf("warm hit was priced (or errored): %v", err)
	}
	if got != want {
		t.Fatalf("warm hit = %v, want %v", got, want)
	}
	st := srv.Stats()
	if st.Requests != 1 || st.CacheHits != 1 || st.Flushes != 0 {
		t.Fatalf("stats = %+v, want 1 request, 1 cache hit, 0 flushes", st)
	}
}

// TestHTTPParityWithCache re-runs the serving contract with a cache
// attached: 48-way concurrent /estimate and /estimate_batch traffic,
// cold then warm, must stay bit-identical to the library — and the warm
// round must be served from the cache.
func TestHTTPParityWithCache(t *testing.T) {
	est := cachedCopy(t)
	srv := New(est, Options{})

	// Ground truth from a cacheless copy of the same artifact.
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	plain, err := qcfe.LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}

	const n = 48
	envs := est.Environments()
	for round := 0; round < 2; round++ {
		results := make([]float64, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				env := envs[i%len(envs)]
				// Half singles (coalescing path), half two-query batches
				// (direct path) — both must agree with the library.
				if i%2 == 0 {
					results[i], errs[i] = srv.Estimate(context.Background(), env.ID, testSQL(i))
					return
				}
				ms, err := srv.EstimateBatch(context.Background(), env.ID, []string{testSQL(i), testSQL(i + n)})
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = ms[0] + ms[1]
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d request %d: %v", round, i, errs[i])
			}
			env := envs[i%len(envs)]
			var want float64
			if i%2 == 0 {
				want, err = plain.EstimateSQL(env, testSQL(i))
			} else {
				var ms []float64
				ms, err = plain.EstimateSQLBatch(env, []string{testSQL(i), testSQL(i + n)})
				if err == nil {
					want = ms[0] + ms[1]
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if results[i] != want {
				t.Fatalf("round %d request %d: served %v != library %v", round, i, results[i], want)
			}
		}
	}
	st := srv.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("second round should hit the prediction tier: %+v", st)
	}
	cs, ok := est.CacheStats()
	if !ok || cs.Prediction.Hits == 0 {
		t.Fatalf("cache stats = %+v ok=%v", cs, ok)
	}
}

// TestStatsExposesCache checks /stats carries the per-tier cache
// counters when (and only when) a cache is attached.
func TestStatsExposesCache(t *testing.T) {
	est := cachedCopy(t)
	srv := New(est, Options{})
	env := est.Environments()[0]
	if _, err := srv.Estimate(context.Background(), env.ID, testSQL(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Estimate(context.Background(), env.ID, testSQL(1)); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var out StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache == nil {
		t.Fatal("/stats must include cache counters when a cache is attached")
	}
	if out.Cache.Prediction.Hits < 1 || out.Cache.Prediction.Stores < 1 {
		t.Fatalf("cache stats = %+v", out.Cache)
	}
	if out.CacheHits < 1 {
		t.Fatalf("server cache_hits = %d", out.CacheHits)
	}

	// Cacheless estimator: no cache block.
	srv2 := New(testEstimator(t), Options{})
	rec2 := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(rec2, req)
	var out2 StatsResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &out2); err != nil {
		t.Fatal(err)
	}
	if out2.Cache != nil {
		t.Fatalf("cacheless /stats must omit cache block, got %+v", out2.Cache)
	}
}
