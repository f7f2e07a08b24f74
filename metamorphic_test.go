package qcfe

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/planner"
)

// Metamorphic properties of the estimate surface: relations that must
// hold between outputs without knowing any output's true value. They
// complement the equivalence tests (which pin batch == scalar on one
// ordering) by quantifying over orderings, multiplicities, and cache
// state — the ways production traffic actually differs from tests.

// TestMetamorphicBatchPermutation: EstimateBatch and EstimateSQLBatch
// are pointwise functions of their inputs — permuting the batch
// permutes the outputs and changes nothing else, and duplicating an
// input duplicates its output bitwise. A violation would mean batch
// composition (arena reuse, chunking, cache population order) leaks
// between batch elements.
func TestMetamorphicBatchPermutation(t *testing.T) {
	est, test := trainedFixture(t, "mscn")
	env := est.Environments()[0]

	// Plan-level: permute the test set's plans.
	plans := make([]*planner.Node, len(test))
	base := make([]float64, len(test))
	for i, s := range test {
		plans[i] = s.Plan
		base[i] = est.EstimateMs(s.Plan)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		perm := rng.Perm(len(plans))
		shuffled := make([]*planner.Node, len(plans))
		for i, p := range perm {
			shuffled[i] = plans[p]
		}
		got := est.EstimateBatch(shuffled)
		for i, p := range perm {
			if got[i] != base[p] {
				t.Fatalf("trial %d: permuted batch[%d] = %v, want plans[%d]'s %v", trial, i, got[i], p, base[p])
			}
		}
	}

	// SQL-level: permutation plus duplication, with and without a cache.
	queries := cacheQueries(20)
	sqlBase := make([]float64, len(queries))
	for i, q := range queries {
		var err error
		if sqlBase[i], err = est.EstimateSQL(env, q); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string) {
		for trial := 0; trial < 3; trial++ {
			perm := rng.Perm(len(queries))
			// Duplicate every third element of the permuted batch.
			var batch []string
			var want []float64
			for i, p := range perm {
				batch = append(batch, queries[p])
				want = append(want, sqlBase[p])
				if i%3 == 0 {
					batch = append(batch, queries[p])
					want = append(want, sqlBase[p])
				}
			}
			got, err := est.EstimateSQLBatch(env, batch)
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d: batch[%d] (%q) = %v, want %v", label, trial, i, batch[i], got[i], want[i])
				}
			}
		}
	}
	check("uncached")
	est.AttachCache(NewQueryCache(CacheOptions{Shards: 4, Capacity: 64})) // small: forces evictions mid-batch
	check("cached-cold")
	check("cached-warm")
}

// TestMetamorphicStagedSplit: the two-phase batch API —
// FeaturizeSQLBatchCtx then PredictFeaturized — is bitwise the fused
// EstimateSQLBatch under permutation and duplication, uncached,
// cache-cold, and cache-warm: calling the halves separately may change
// when work happens, never what it computes.
func TestMetamorphicStagedSplit(t *testing.T) {
	est, _ := trainedFixture(t, "mscn")
	env := est.Environments()[0]
	queries := cacheQueries(20)

	sqlBase := make([]float64, len(queries))
	for i, q := range queries {
		var err error
		if sqlBase[i], err = est.EstimateSQL(env, q); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(23))
	check := func(label string) {
		for trial := 0; trial < 3; trial++ {
			perm := rng.Perm(len(queries))
			var batch []string
			var want []float64
			for i, p := range perm {
				batch = append(batch, queries[p])
				want = append(want, sqlBase[p])
				if i%3 == 0 {
					batch = append(batch, queries[p])
					want = append(want, sqlBase[p])
				}
			}
			fb, err := est.FeaturizeSQLBatchCtx(context.Background(), env, batch)
			if err != nil {
				t.Fatal(err)
			}
			if w, m := fb.Warm(), fb.Misses(); w+m != len(batch) {
				t.Fatalf("%s trial %d: warm %d + misses %d != batch %d", label, trial, w, m, len(batch))
			}
			got := est.PredictFeaturized(fb)
			for i := range batch {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d: staged batch[%d] (%q) = %v, want fused %v", label, trial, i, batch[i], got[i], want[i])
				}
			}
		}
	}
	check("uncached")
	est.AttachCache(NewQueryCache(CacheOptions{Shards: 4, Capacity: 64}))
	check("cached-cold")
	check("cached-warm")
}

// TestMetamorphicCacheSwapMidBatch: cache-on equals cache-off even
// while the cache's generation is swapped back and forth mid-batch by
// a competing estimator. Each estimator stamps lookups and stores with
// its own generation, so concurrent generation movement may only
// change hit rates, never bytes.
func TestMetamorphicCacheSwapMidBatch(t *testing.T) {
	est, test := trainedFixture(t, "mscn")
	// A cheaply retrained competitor with different weights (and so a
	// different generation) that fights over the same cache.
	rival, err := est.Adapt(test, 15)
	if err != nil {
		t.Fatal(err)
	}
	env := est.Environments()[0]
	renv := rival.Environments()[0]
	queries := cacheQueries(24)

	// Cache-off ground truth for both estimators.
	want := make([]float64, len(queries))
	rivalWant := make([]float64, len(queries))
	for i, q := range queries {
		if want[i], err = est.EstimateSQL(env, q); err != nil {
			t.Fatal(err)
		}
		if rivalWant[i], err = rival.EstimateSQL(renv, q); err != nil {
			t.Fatal(err)
		}
		if want[i] == rivalWant[i] {
			t.Fatalf("query %d indistinguishable across estimators", i)
		}
	}

	cache := NewQueryCache(CacheOptions{Shards: 4, Capacity: 256})
	est.AttachCache(cache)
	rival.AttachCache(cache)

	const rounds = 40
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	runBatches := func(e *CostEstimator, en *Environment, wants []float64, label string) {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			got, err := e.EstimateSQLBatch(en, queries)
			if err != nil {
				errs <- err
				return
			}
			for i := range queries {
				if got[i] != wants[i] {
					errs <- fmt.Errorf("%s round %d query %d: cached %v != cache-off %v", label, r, i, got[i], wants[i])
					return
				}
			}
		}
	}
	// Both estimators batch concurrently over one cache. Every
	// AttachCache inside the other goroutine is a generation swap
	// landing mid-batch from this goroutine's point of view.
	wg.Add(3)
	go runBatches(est, env, want, "est")
	go runBatches(rival, renv, rivalWant, "rival")
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			est.AttachCache(cache) // move generation to est
			rival.AttachCache(cache)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
