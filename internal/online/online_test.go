package online

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	qcfe "repro"
	"repro/internal/workload"
)

// fixture trains one small estimator (and keeps its labeled pool) shared
// across the package's tests; training dominates test runtime.
var fixture struct {
	once  sync.Once
	est   *qcfe.CostEstimator
	train []workload.Sample
	err   error
}

func testEstimator(t *testing.T) (*qcfe.CostEstimator, []workload.Sample) {
	t.Helper()
	fixture.once.Do(func() {
		b, err := qcfe.OpenBenchmark("sysbench", 1)
		if err != nil {
			fixture.err = err
			return
		}
		envs := qcfe.RandomEnvironments(2, 1)
		pool, err := b.CollectWorkload(envs, 80, 1)
		if err != nil {
			fixture.err = err
			return
		}
		train, _ := pool.Split(0.8)
		fixture.train = train
		fixture.est, fixture.err = qcfe.NewPipeline("mscn",
			qcfe.WithTrainIters(40), qcfe.WithReferences(20), qcfe.WithSeed(3),
		).Fit(b, envs, train)
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.est, fixture.train
}

func testSQL(i int) string {
	switch i % 3 {
	case 0:
		return fmt.Sprintf("SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN %d AND %d", 50+i, 250+i)
	case 1:
		return fmt.Sprintf("SELECT * FROM sbtest1 WHERE id = %d", 1+i)
	default:
		return fmt.Sprintf("SELECT * FROM sbtest1 WHERE k < %d", 100+i)
	}
}

// TestAdaptIsolatedAndArtifactExact is the model half of the hot-swap
// contract: Adapt never mutates the serving estimator, and the adapted
// estimator's predictions are bit-identical to a cold estimator loaded
// from its own saved artifact — the property that lets a swapped-in
// model be audited (or restarted) from its artifact with zero drift.
func TestAdaptIsolatedAndArtifactExact(t *testing.T) {
	est, train := testEstimator(t)
	env := est.Environments()[0]
	queries := make([]string, 12)
	before := make([]float64, len(queries))
	for i := range queries {
		queries[i] = testSQL(i)
		var err error
		if before[i], err = est.EstimateSQL(env, queries[i]); err != nil {
			t.Fatal(err)
		}
	}

	next, err := est.Adapt(train[:64], 25)
	if err != nil {
		t.Fatal(err)
	}
	// The serving estimator is untouched.
	for i, q := range queries {
		got, err := est.EstimateSQL(env, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != before[i] {
			t.Fatalf("Adapt mutated the serving estimator: query %d %v -> %v", i, before[i], got)
		}
	}
	// The adapted model actually moved.
	moved := false
	for i, q := range queries {
		got, err := next.EstimateSQL(next.Environments()[0], q)
		if err != nil {
			t.Fatal(err)
		}
		if got != before[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("25 retrain iterations changed no prediction — retraining is a no-op?")
	}
	// Save→Load of the adapted estimator is bit-identical to it.
	var buf bytes.Buffer
	if err := next.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cold, err := qcfe.LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		warm, err := next.EstimateSQL(next.Environments()[0], q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cold.EstimateSQL(cold.Environments()[0], q)
		if err != nil {
			t.Fatal(err)
		}
		if got != warm {
			t.Fatalf("query %d: cold-loaded %v != adapted %v", i, got, warm)
		}
	}

	// Guardrails.
	if _, err := est.Adapt(nil, 10); err == nil {
		t.Fatal("empty window must error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := est.AdaptCtx(ctx, train[:16], 10); err == nil {
		t.Fatal("cancelled adapt must error")
	}
}

// TestDriftTriggersRetrainAndSwap drives the full loop: labeled
// observations with terrible q-error push the rolling median past the
// threshold, the adapter retrains on its window once 32 are scored (not
// before), hands the query cache to the adapted estimator, and installs
// it through the swap callback.
func TestDriftTriggersRetrainAndSwap(t *testing.T) {
	est, _ := testEstimator(t)
	// A private copy so the shared fixture never gains a cache.
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cur, err := qcfe.LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cache := qcfe.NewQueryCache(qcfe.CacheOptions{Shards: 4, Capacity: 256})
	cur.AttachCache(cache)
	env := cur.Environments()[0]

	var mu sync.Mutex
	var installed []*qcfe.CostEstimator
	ad := New(cur, Options{
		Window: 64, DriftThreshold: 1.5, RetrainIters: 15, LabelEvery: 1,
	}, func(next *qcfe.CostEstimator) {
		mu.Lock()
		installed = append(installed, next)
		mu.Unlock()
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { ad.Run(ctx); close(done) }()

	// Feed ground-truth labels 50x the prediction: q-error ~50 on every
	// observation, far past the 1.5 threshold.
	observe := func(i int) {
		sql := testSQL(i)
		pred, err := cur.EstimateSQL(env, sql)
		if err != nil {
			t.Fatal(err)
		}
		if !ad.ObserveLabeled(env, sql, pred, pred*50, cur) {
			t.Fatalf("label %d dropped", i)
		}
	}
	// 31 scored labels are one short of the minimum: no retrain yet.
	for i := 0; i < 31; i++ {
		observe(i)
	}
	deadline := time.Now().Add(60 * time.Second)
	for ad.Stats().Labeled < 31 {
		if time.Now().After(deadline) {
			t.Fatalf("labeling stalled: %+v", ad.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := ad.Stats(); st.Retrains != 0 || st.Swaps != 0 {
		t.Fatalf("retrained before 32 labels: %+v", st)
	}
	observe(31)
	for {
		if st := ad.Stats(); st.Swaps >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no swap after drift: stats %+v", ad.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-done

	st := ad.Stats()
	if st.Retrains < 1 || st.Swaps < 1 || st.Labeled < 32 {
		t.Fatalf("stats = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(installed) == 0 {
		t.Fatal("swap callback never ran")
	}
	next := installed[len(installed)-1]
	if next == cur {
		t.Fatal("swap installed the old estimator")
	}
	if ad.Current() != next {
		t.Fatal("Current() disagrees with the last installed estimator")
	}
	// Cache handoff: the adapted estimator owns the same cache object,
	// moved to its generation — the old estimator's entries are invisible.
	if next.Cache() != cache {
		t.Fatal("query cache was not handed to the adapted estimator")
	}
	if _, ok := next.CachedEstimate(next.Environments()[0], testSQL(0)); ok {
		t.Fatal("old generation's prediction visible to the adapted estimator")
	}
	// Post-swap estimates are bit-identical to a cold estimator loaded
	// from the adapted artifact (the acceptance bar for cache safety).
	var abuf bytes.Buffer
	if err := next.Save(&abuf); err != nil {
		t.Fatal(err)
	}
	cold, err := qcfe.LoadEstimator(&abuf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		q := testSQL(i)
		warm, err := next.EstimateSQL(next.Environments()[0], q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.EstimateSQL(cold.Environments()[0], q)
		if err != nil {
			t.Fatal(err)
		}
		if warm != want {
			t.Fatalf("post-swap query %d: served %v != cold-loaded %v", i, warm, want)
		}
	}
}

// TestHealthyTrafficNeverRetrains: labels that agree with predictions
// keep the median q-error at 1.0 and the adapter must stay quiet. A
// window of 4 lets drift trigger after 4 scored labels.
func TestHealthyTrafficNeverRetrains(t *testing.T) {
	est, _ := testEstimator(t)
	ad := New(est, Options{
		Window: 4, DriftThreshold: 1.5, LabelEvery: 1,
	}, func(*qcfe.CostEstimator) { t.Error("swap on healthy traffic") })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { ad.Run(ctx); close(done) }()
	env := est.Environments()[0]
	for i := 0; i < 12; i++ {
		sql := testSQL(i)
		pred, err := est.EstimateSQL(env, sql)
		if err != nil {
			t.Fatal(err)
		}
		ad.ObserveLabeled(env, sql, pred, pred, est) // q-error exactly 1
	}
	deadline := time.Now().Add(30 * time.Second)
	for ad.Stats().Labeled < 12 {
		if time.Now().After(deadline) {
			t.Fatalf("labeling stalled: %+v", ad.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	st := ad.Stats()
	if st.Retrains != 0 || st.Swaps != 0 {
		t.Fatalf("healthy traffic retrained: %+v", st)
	}
	if st.MedianQError != 1 {
		t.Fatalf("median q-error = %v, want exactly 1", st.MedianQError)
	}
}

// TestObserveSamplingAndOverflow: LabelEvery thins unlabeled traffic,
// the queue sheds overflow instead of blocking, and replay failures are
// counted rather than fatal.
func TestObserveSamplingAndOverflow(t *testing.T) {
	est, _ := testEstimator(t)
	env := est.Environments()[0]
	ad := New(est, Options{Window: 16, LabelEvery: 4}, nil)
	ad.obs = make(chan observation, 2) // a queue of 2 instead of 256
	// No Run goroutine: everything sampled lands in the queue or drops.
	for i := 0; i < 16; i++ {
		ad.Observe(env, testSQL(i), 1.0, est)
	}
	st := ad.Stats()
	if st.Observed != 16 {
		t.Fatalf("observed = %d", st.Observed)
	}
	if st.Sampled != 2 || st.Dropped != 2 {
		// 16 observations / LabelEvery 4 = 4 sampled, queue holds 2.
		t.Fatalf("sampled = %d dropped = %d, want 2 and 2", st.Sampled, st.Dropped)
	}

	// A query that cannot replay is a counted label error, not a crash.
	ad2 := New(est, Options{Window: 16, LabelEvery: 1}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { ad2.Run(ctx); close(done) }()
	ad2.Observe(env, "SELECT * FROM no_such_table WHERE x = 1", 1.0, est)
	deadline := time.Now().Add(30 * time.Second)
	for ad2.Stats().LabelErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("label error never surfaced: %+v", ad2.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	if st := ad2.Stats(); st.Labeled != 0 {
		t.Fatalf("unreplayable query entered the window: %+v", st)
	}
}
