package qcfe

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// cacheQueries builds a mixed workload over the sysbench schema: exact
// repeats (prediction tier), literal variants of shared templates
// (template tier), and reformatted spellings of identical semantics
// (feature tier).
func cacheQueries(n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		switch i % 4 {
		case 0:
			out = append(out, fmt.Sprintf("SELECT * FROM sbtest1 WHERE id = %d", 10+i))
		case 1:
			out = append(out, fmt.Sprintf("SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN %d AND %d", i, i+200))
		case 2:
			// Same semantics as case 0's i-2 query, different spelling.
			out = append(out, fmt.Sprintf("select  *  from sbtest1 where id=%d", 10+i-2))
		default:
			out = append(out, fmt.Sprintf("SELECT k FROM sbtest1 WHERE k < %d ORDER BY k LIMIT %d", i*3, 1+i%7))
		}
	}
	return out
}

// TestCacheEquivalence is the tentpole's correctness bar: with a cache
// attached, EstimateSQL and EstimateSQLBatch return bit-identical
// results to the uncached paths — on cold misses, warm hits, template
// hits, and feature hits alike.
func TestCacheEquivalence(t *testing.T) {
	est, _ := trainedFixture(t, "mscn")
	env := est.Environments()[0]
	env2 := est.Environments()[1]
	queries := cacheQueries(40)

	// Uncached ground truth, per environment.
	want := make([]float64, len(queries))
	want2 := make([]float64, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = est.EstimateSQL(env, q); err != nil {
			t.Fatalf("uncached %q: %v", q, err)
		}
		if want2[i], err = est.EstimateSQL(env2, q); err != nil {
			t.Fatal(err)
		}
	}
	batchWant, err := est.EstimateSQLBatch(env, queries)
	if err != nil {
		t.Fatal(err)
	}

	est.AttachCache(NewQueryCache(CacheOptions{Shards: 8, Capacity: 1024}))
	// Three passes: cold (populating), warm (prediction tier), and a
	// shuffled batch pass (mixed hits/misses across tiers).
	for pass := 0; pass < 2; pass++ {
		for i, q := range queries {
			got, err := est.EstimateSQL(env, q)
			if err != nil {
				t.Fatalf("pass %d %q: %v", pass, q, err)
			}
			if got != want[i] {
				t.Fatalf("pass %d query %d: cached %v != uncached %v", pass, i, got, want[i])
			}
		}
	}
	batchGot, err := est.EstimateSQLBatch(env, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if batchGot[i] != batchWant[i] {
			t.Fatalf("batch query %d: cached %v != uncached %v", i, batchGot[i], batchWant[i])
		}
	}
	// A second environment must not alias the first's entries.
	for i, q := range queries {
		got, err := est.EstimateSQL(env2, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want2[i] {
			t.Fatalf("env2 query %d: cached %v != uncached %v", i, got, want2[i])
		}
	}
	st, ok := est.CacheStats()
	if !ok {
		t.Fatal("CacheStats must report once attached")
	}
	if st.Prediction.Hits == 0 || st.Template.Hits == 0 || st.Feature.Hits == 0 {
		t.Fatalf("every tier should have hits on this workload: %+v", st)
	}
	// Errors must be identical to the uncached path's, and never cached.
	for pass := 0; pass < 2; pass++ {
		if _, err := est.EstimateSQL(env, "SELECT * FROM nope WHERE x = 1"); err == nil {
			t.Fatal("bad table must error")
		}
		if _, err := est.EstimateSQL(env, "not sql at all"); err == nil {
			t.Fatal("unparsable text must error")
		}
	}
}

// TestCacheEquivalenceAnalytic covers the feature-tier fast path for
// the analytic model: its entries carry only the plan (no feature
// rows), and cached predictions must still equal uncached ones bitwise.
func TestCacheEquivalenceAnalytic(t *testing.T) {
	est, _ := trainedFixture(t, "analytic")
	env := est.Environments()[0]
	queries := cacheQueries(16)
	want := make([]float64, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = est.EstimateSQL(env, q); err != nil {
			t.Fatal(err)
		}
	}
	est.AttachCache(NewQueryCache(CacheOptions{Shards: 4, Capacity: 256}))
	for pass := 0; pass < 2; pass++ {
		got, err := est.EstimateSQLBatch(env, queries)
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			if got[i] != want[i] {
				t.Fatalf("pass %d query %d: cached %v != uncached %v", pass, i, got[i], want[i])
			}
		}
	}
	st, _ := est.CacheStats()
	if st.Feature.Hits == 0 || st.Prediction.Hits == 0 {
		t.Fatalf("expected feature+prediction tier traffic: %+v", st)
	}
}

// TestCacheGenerationSwap is the Save→Load invalidation contract: after
// a differently-trained estimator attaches to the same cache, every
// prediction equals the new estimator's uncached output (never the old
// one's), while a byte-identical Save→Load round trip keeps the cache
// warm.
func TestCacheGenerationSwap(t *testing.T) {
	b, err := OpenBenchmark("sysbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	envs := RandomEnvironments(2, 1)
	pool, err := b.CollectWorkload(envs, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(0.8)
	fit := func(iters int) *CostEstimator {
		est, err := NewPipeline("mscn", WithTrainIters(iters), WithReferences(20), WithSeed(3)).Fit(b, envs, train)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	est1, est2 := fit(40), fit(80) // different weights
	env := envs[0]
	queries := cacheQueries(16)
	want2 := make([]float64, len(queries))
	for i, q := range queries {
		if want2[i], err = est2.EstimateSQL(env, q); err != nil {
			t.Fatal(err)
		}
	}

	cache := NewQueryCache(CacheOptions{Shards: 4, Capacity: 512})
	est1.AttachCache(cache)
	for _, q := range queries { // warm with est1's predictions
		if _, err := est1.EstimateSQL(env, q); err != nil {
			t.Fatal(err)
		}
	}

	// The swap: est2 takes over the cache.
	est2.AttachCache(cache)
	for i, q := range queries {
		if ms, ok := est2.CachedEstimate(env, q); ok {
			t.Fatalf("stale est1 prediction %v visible to est2 for %q", ms, q)
		}
		got, err := est2.EstimateSQL(env, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want2[i] {
			t.Fatalf("query %d after swap: %v != est2's uncached %v", i, got, want2[i])
		}
	}
	// est1 keeps serving its own traffic correctly even after the swap
	// (its stamps differ), without polluting est2's entries.
	w1, err := est1.EstimateSQL(env, "SELECT * FROM sbtest1 WHERE id = 999999")
	if err != nil {
		t.Fatal(err)
	}
	if ms, ok := est2.CachedEstimate(env, "SELECT * FROM sbtest1 WHERE id = 999999"); ok {
		t.Fatalf("est1's post-swap write (%v) leaked into est2's generation (%v)", w1, ms)
	}

	// Save→Load of est2 hashes to the same generation: the cache stays
	// warm across the round trip.
	var buf bytes.Buffer
	if err := est2.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded.AttachCache(cache)
	warmHits := 0
	for i, q := range queries {
		if ms, ok := loaded.CachedEstimate(env, q); ok {
			warmHits++
			if ms != want2[i] {
				t.Fatalf("warm entry %d drifted: %v != %v", i, ms, want2[i])
			}
		}
	}
	if warmHits == 0 {
		t.Fatal("byte-identical Save→Load should keep the cache warm")
	}
}

// TestCacheConcurrentEquivalence hammers one cached estimator from many
// goroutines (shared query population, so tiers are contended) and
// checks every result bitwise against the uncached ground truth; run
// under -race in CI it also proves the wiring races nowhere.
func TestCacheConcurrentEquivalence(t *testing.T) {
	est, _ := trainedFixture(t, "mscn")
	envs := est.Environments()
	queries := cacheQueries(24)
	want := make(map[int][]float64, len(envs))
	for _, env := range envs {
		w := make([]float64, len(queries))
		for i, q := range queries {
			var err error
			if w[i], err = est.EstimateSQL(env, q); err != nil {
				t.Fatal(err)
			}
		}
		want[env.ID] = w
	}
	est.AttachCache(NewQueryCache(CacheOptions{Shards: 8, Capacity: 256}))
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < 200; op++ {
				env := envs[(w+op)%len(envs)]
				i := (w*7 + op) % len(queries)
				if w%3 == 0 && op%5 == 0 { // mix batch traffic in
					got, err := est.EstimateSQLBatch(env, queries[i:min(i+4, len(queries))])
					if err != nil {
						errs <- err
						return
					}
					for k, v := range got {
						if v != want[env.ID][i+k] {
							errs <- fmt.Errorf("batch worker %d: query %d got %v want %v", w, i+k, v, want[env.ID][i+k])
							return
						}
					}
					continue
				}
				got, err := est.EstimateSQL(env, queries[i])
				if err != nil {
					errs <- err
					return
				}
				if got != want[env.ID][i] {
					errs <- fmt.Errorf("worker %d: query %d got %v want %v", w, i, got, want[env.ID][i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEstimateSQLWarmZeroAlloc: a resident prediction is answered by
// EstimateSQL itself without touching the heap — the generation load, the
// struct cache key and the lock-free snapshot probe — one layer above
// qcache's own TestPredictionHitZeroAlloc, on the path every warm library
// caller and the serve/tenant warm probes actually take.
func TestEstimateSQLWarmZeroAlloc(t *testing.T) {
	est, _ := trainedFixture(t, "mscn")
	est.AttachCache(NewQueryCache(CacheOptions{}))
	env := est.Environments()[0]
	sql := cacheQueries(1)[0]
	want, err := est.EstimateSQL(env, sql) // the miss that stores it
	if err != nil {
		t.Fatal(err)
	}
	hit := func() {
		if got, err := est.EstimateSQL(env, sql); err != nil || got != want {
			t.Fatalf("warm EstimateSQL = (%v, %v), want (%v, nil)", got, err, want)
		}
	}
	before, _ := est.CacheStats()
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, hit)
	after, _ := est.CacheStats()
	if allocs != 0 {
		t.Fatalf("warm EstimateSQL allocates %.2f allocs/op, want 0", allocs)
	}
	// AllocsPerRun calls the function once more than runs, as warm-up.
	if got := after.Prediction.Hits - before.Prediction.Hits; got != runs+1 || after.Prediction.Misses != before.Prediction.Misses {
		t.Fatalf("prediction tier moved by %d hits, %d misses over %d warm calls — not the hit path",
			got, after.Prediction.Misses-before.Prediction.Misses, runs+1)
	}
}
