package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	qcfe "repro"
	"repro/internal/qcache"
	"repro/internal/workload"
)

// soakDuration picks the soak length: 2s under -short (the CI -race
// matrix and local quick runs), 60s when QCFE_SOAK_SECONDS=60 (the
// dedicated CI soak step), 10s otherwise — long enough to cycle the
// cache and both swaps many thousands of times without dominating a
// full local `go test ./...`.
func soakDuration(t *testing.T) time.Duration {
	if v := os.Getenv("QCFE_SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs <= 0 {
			t.Fatalf("QCFE_SOAK_SECONDS=%q", v)
		}
		return time.Duration(secs) * time.Second
	}
	if testing.Short() {
		return 2 * time.Second
	}
	return 10 * time.Second
}

// TestSoakSwapUnderLoad is the hot-swap atomicity bar: 48-way
// concurrent single-estimate traffic with client context cancellations
// mixed in, two-plus estimator hot swaps mid-run (cache handed off each
// time), and three invariants checked continuously:
//
//  1. zero torn reads — every successful estimate is bit-identical to
//     one of the two models' cold-loaded (artifact) predictions, never
//     a blend, never a stale cache line from the other generation;
//  2. per-tier cache counters are monotonic non-decreasing;
//  3. errors are only ever cancellation/shutdown shaped.
//
// Run under -race in CI, this is also the data-race proof for the
// whole swap path (atomic pointer, generation store, CLOCK shards).
func TestSoakSwapUnderLoad(t *testing.T) {
	// One mode; the subtest keeps the test ID CI and the floor list know.
	t.Run("serial", func(t *testing.T) { soakSwapUnderLoad(t, soakDuration(t)) })
}

func soakSwapUnderLoad(t *testing.T, dur time.Duration) {
	estA := cachedCopy(t) // owns the cache initially
	estB, err := testEstimator(t).Adapt(soakWindow(t), 25)
	if err != nil {
		t.Fatal(err)
	}
	cache := estA.Cache()

	// Ground truth from cold, cacheless estimators loaded from each
	// model's artifact — the strongest form of the no-torn-reads check:
	// a served estimate must equal what the artifact alone reproduces.
	coldA, coldB := reloaded(t, estA), reloaded(t, estB)
	const nq = 32
	envs := estA.Environments()
	wantA := make(map[int][]float64, len(envs))
	wantB := make(map[int][]float64, len(envs))
	for ei, env := range envs {
		a := make([]float64, nq)
		b := make([]float64, nq)
		for i := 0; i < nq; i++ {
			if a[i], err = coldA.EstimateSQL(coldA.Environments()[ei], testSQL(i)); err != nil {
				t.Fatal(err)
			}
			if b[i], err = coldB.EstimateSQL(coldB.Environments()[ei], testSQL(i)); err != nil {
				t.Fatal(err)
			}
			if a[i] == b[i] {
				t.Fatalf("query %d indistinguishable across models; soak cannot detect torn reads", i)
			}
		}
		wantA[env.ID] = a
		wantB[env.ID] = b
	}

	srv := New(estA, Options{})

	var (
		stop     atomic.Bool
		served   atomic.Int64
		torn     atomic.Int64
		badErrs  atomic.Int64
		firstBad sync.Once
		badMsg   atomic.Value
	)
	const workers = 48
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			for op := 0; !stop.Load(); op++ {
				env := envs[(w+op)%len(envs)]
				qi := rng.Intn(nq)
				rctx := context.Background()
				var rcancel context.CancelFunc = func() {}
				if op%16 == 7 {
					// Client gives up almost immediately: exercises the
					// pending-list and in-batch cancellation paths.
					rctx, rcancel = context.WithTimeout(rctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				ms, err := srv.Estimate(rctx, env.ID, testSQL(qi))
				rcancel()
				if err != nil {
					if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						badErrs.Add(1)
						firstBad.Do(func() { badMsg.Store(fmt.Sprintf("worker %d: %v", w, err)) })
					}
					continue
				}
				served.Add(1)
				if ms != wantA[env.ID][qi] && ms != wantB[env.ID][qi] {
					torn.Add(1)
					firstBad.Do(func() {
						badMsg.Store(fmt.Sprintf("torn read worker %d query %d: %v not in {%v, %v}",
							w, qi, ms, wantA[env.ID][qi], wantB[env.ID][qi]))
					})
				}
			}
		}(w)
	}

	// Cache-counter monotonicity sampler: every tier's cumulative
	// counters must only ever grow, swaps included.
	monoDone := make(chan string, 1)
	go func() {
		defer close(monoDone)
		regressed := func(p, c qcache.TierStats) bool {
			return c.Hits < p.Hits || c.Misses < p.Misses || c.Stores < p.Stores || c.Evictions < p.Evictions
		}
		prev := cache.Stats()
		for !stop.Load() {
			time.Sleep(20 * time.Millisecond)
			cur := cache.Stats()
			if regressed(prev.Template, cur.Template) || regressed(prev.Feature, cur.Feature) || regressed(prev.Prediction, cur.Prediction) {
				select {
				case monoDone <- fmt.Sprintf("cache counters went backwards:\n  %+v\n  %+v", prev, cur):
				default:
				}
				return
			}
			prev = cur
		}
	}()

	// Two hot swaps mid-run, cache handed off each time: A → B → A.
	time.Sleep(dur / 3)
	srv.SwapEstimator(qcfe.SwapEstimator(estA, estB))
	time.Sleep(dur / 3)
	srv.SwapEstimator(qcfe.SwapEstimator(estB, estA))
	time.Sleep(dur / 3)

	stop.Store(true)
	wg.Wait()
	if msg, ok := <-monoDone; ok && msg != "" {
		t.Fatal(msg)
	}

	if torn.Load() > 0 || badErrs.Load() > 0 {
		t.Fatalf("torn reads = %d, unexpected errors = %d; first: %v",
			torn.Load(), badErrs.Load(), badMsg.Load())
	}
	if served.Load() == 0 {
		t.Fatal("soak served nothing")
	}
	st := srv.Stats()
	if st.Swaps != 2 {
		t.Fatalf("swaps = %d, want 2", st.Swaps)
	}
	if st.CacheHits == 0 {
		t.Fatalf("soak never hit the warm path: %+v", st)
	}
	t.Logf("soak: %v, served %d estimates across %d swaps (%d cache hits, %d flushes, %d client cancels)",
		dur, served.Load(), st.Swaps, st.CacheHits, st.Flushes, st.Errors)
}

// soakWindow collects a small labeled window for Adapt.
func soakWindow(t *testing.T) []workload.Sample {
	t.Helper()
	est := testEstimator(t)
	pool, err := est.Benchmark().CollectWorkload(est.Environments(), 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(0.8)
	return train
}
