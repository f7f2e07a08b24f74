package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	qcfe "repro"
)

// startPipelined builds a pipelined server over est and runs it until
// the test ends.
func startPipelined(t *testing.T, est Estimator, opts Options) *Server {
	t.Helper()
	srv := New(est, opts)
	runServer(t, srv)
	return srv
}

// runServer starts srv's batcher and stops it when the test ends.
func runServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { srv.Run(ctx); close(done) }()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// TestPipelinedParityAcrossDepths is the tentpole invariant: with the
// staged pipeline enabled — at several depths and worker counts, cache
// attached or not — concurrent coalesced requests return exactly the
// library's predictions, cold and warm. Bitwise equality across
// {serial, pipelined×depths} × {cache on, cache off} all reduced to the
// same library ground truth.
func TestPipelinedParityAcrossDepths(t *testing.T) {
	base := testEstimator(t)
	envs := base.Environments()
	const n = 48
	want := make([]float64, n)
	for i := range want {
		ms, err := base.EstimateSQL(envs[i%len(envs)], testSQL(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ms
	}

	run := func(t *testing.T, srv *Server) {
		// Two passes: the first is cold (missing every tier the estimator
		// has), the second warm where a cache is attached. Both must be
		// bit-identical to the library.
		for pass := 0; pass < 2; pass++ {
			got := make([]float64, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = srv.Estimate(context.Background(), envs[i%len(envs)].ID, testSQL(i))
				}(i)
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("pass %d request %d: %v", pass, i, errs[i])
				}
				if got[i] != want[i] {
					t.Fatalf("pass %d request %d: served %v != library %v", pass, i, got[i], want[i])
				}
			}
		}
	}

	for _, depth := range []int{1, 2, 4} {
		opts := Options{MaxBatch: 16, PipelineDepth: depth, FeaturizeWorkers: 2, PredictWorkers: 2}
		t.Run(fmt.Sprintf("depth=%d/cache=off", depth), func(t *testing.T) {
			run(t, startPipelined(t, testEstimator(t), opts))
		})
		t.Run(fmt.Sprintf("depth=%d/cache=on", depth), func(t *testing.T) {
			run(t, startPipelined(t, cachedCopy(t), opts))
		})
	}
}

// TestPipelinedStats: the pipelined counters keep the serial shape —
// every queued request flushes through some micro-batch, MeanBatch stays
// consistent, and /stats reports the pipeline configuration.
func TestPipelinedStats(t *testing.T) {
	est := testEstimator(t)
	srv := New(est, Options{MaxBatch: 64, PipelineDepth: 2})
	env := est.Environments()[0]

	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Estimate(context.Background(), env.ID, testSQL(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for len(srv.queue) < n {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Run(ctx)
	wg.Wait()

	st := srv.Stats()
	if st.Requests != n {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1 (all %d requests pre-queued)", st.Flushes, n)
	}
	if st.MeanBatch != n {
		t.Fatalf("mean batch = %v, want %d", st.MeanBatch, n)
	}
	resp := srv.StatsSnapshot()
	if resp.PipelineDepth != 2 || resp.FeaturizeWorkers != 2 || resp.PredictWorkers != 1 {
		t.Fatalf("stats pipeline config = %d/%d/%d, want 2/2/1",
			resp.PipelineDepth, resp.FeaturizeWorkers, resp.PredictWorkers)
	}
}

// TestPipelinedErrorIsolation: a malformed query inside a pipelined
// micro-batch fails alone; its batch companions still price through the
// solo fallback bit-identically to the library.
func TestPipelinedErrorIsolation(t *testing.T) {
	est := testEstimator(t)
	srv := New(est, Options{MaxBatch: 8, PipelineDepth: 2})
	env := est.Environments()[0]

	const n = 6
	sqls := make([]string, n)
	for i := range sqls {
		sqls[i] = testSQL(i)
	}
	sqls[3] = "SELECT * FROM no_such_table"
	got := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = srv.Estimate(context.Background(), env.ID, sqls[i])
		}(i)
	}
	for len(srv.queue) < n {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Run(ctx)
	wg.Wait()

	for i := 0; i < n; i++ {
		if i == 3 {
			if errs[i] == nil {
				t.Fatalf("malformed query did not error")
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want, err := est.EstimateSQL(env, sqls[i])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("request %d: served %v != library %v", i, got[i], want)
		}
	}
}

// TestPipelinedShutdownFailsPending mirrors TestShutdownFailsPending for
// the staged mode: requests still queued when the serving context is
// cancelled fail with a shutdown error after the stages have drained.
func TestPipelinedShutdownFailsPending(t *testing.T) {
	est := testEstimator(t)
	srv := New(est, Options{PipelineDepth: 2})
	env := est.Environments()[0]

	errc := make(chan error, 1)
	go func() {
		_, err := srv.Estimate(context.Background(), env.ID, testSQL(0))
		errc <- err
	}()
	for len(srv.queue) < 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v", err)
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "shutting down") {
			t.Fatalf("pending request err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("pending request hung across shutdown")
	}
}

// stormEstimator counts solo-fallback calls so the shutdown tests can
// prove cancellation never triggers the O(n) sequential re-pricing
// storm. Its batch path announces the batch size on entered, then parks
// until the serving context is cancelled and fails with the context's
// own error, exactly like the library's — so cancellation always lands
// mid-flush.
type stormEstimator struct {
	fakeBase
	solo    atomic.Int64
	entered chan int
}

// fakeBase is the identity half of a cacheless, single-environment fake
// Estimator; the fakes embedding it supply the two pricing methods.
type fakeBase struct{ env *qcfe.Environment }

func (f fakeBase) ModelName() string                                        { return "fake" }
func (f fakeBase) BenchmarkName() string                                    { return "fake" }
func (f fakeBase) Environments() []*qcfe.Environment                        { return []*qcfe.Environment{f.env} }
func (f fakeBase) Generation() uint64                                       { return 1 }
func (f fakeBase) CachedEstimate(*qcfe.Environment, string) (float64, bool) { return 0, false }
func (f fakeBase) CacheStats() (qcfe.CacheStats, bool)                      { return qcfe.CacheStats{}, false }
func (f *stormEstimator) EstimateSQL(*qcfe.Environment, string) (float64, error) {
	f.solo.Add(1)
	return 1, nil
}
func (f *stormEstimator) EstimateSQLBatchCtx(ctx context.Context, _ *qcfe.Environment, sqls []string) ([]float64, error) {
	f.entered <- len(sqls)
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestShutdownNoFallbackStorm is the satellite regression test: when the
// server is cancelled while a coalesced batch is pricing, the batch must
// fail fast with the context's error — the per-request solo fallback
// (meant for query faults) must never re-price a batch that only failed
// because the server is shutting down.
func TestShutdownNoFallbackStorm(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{MaxBatch: 64}},
		{"pipelined", Options{MaxBatch: 64, PipelineDepth: 2}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			fake := &stormEstimator{fakeBase: fakeBase{env: &qcfe.Environment{ID: 0}}, entered: make(chan int, 1)}
			srv := New(fake, mode.opts)

			const n = 8
			errc := make(chan error, n)
			for i := 0; i < n; i++ {
				go func(i int) {
					_, err := srv.Estimate(context.Background(), 0, fmt.Sprintf("SELECT %d", i))
					errc <- err
				}(i)
			}
			// Park every request in the queue before the batcher starts, so
			// its first drain is one n-request batch; shut down once that
			// batch is inside the estimator's batch call.
			for len(srv.queue) < n {
				time.Sleep(time.Millisecond)
			}
			ctx, cancel := context.WithCancel(context.Background())
			runDone := make(chan error, 1)
			go func() { runDone <- srv.Run(ctx) }()
			select {
			case got := <-fake.entered:
				if got != n {
					t.Fatalf("first flush priced %d requests, want all %d pre-queued", got, n)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("batcher never flushed the queued requests")
			}
			cancel()
			for i := 0; i < n; i++ {
				select {
				case err := <-errc:
					if err == nil || !strings.Contains(err.Error(), "shutting down") {
						t.Fatalf("request err = %v, want shutdown error", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("request %d hung across shutdown (fallback storm?)", i)
				}
			}
			if err := <-runDone; !errors.Is(err, context.Canceled) {
				t.Fatalf("Run = %v", err)
			}
			if got := fake.solo.Load(); got != 0 {
				t.Fatalf("solo fallback ran %d times during shutdown, want 0", got)
			}
			if st := srv.Stats(); st.Errors != n {
				t.Fatalf("errors = %d, want %d", st.Errors, n)
			}
		})
	}
}
