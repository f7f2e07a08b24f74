package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	qcfe "repro"
)

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

// fakeBase is the identity half of a cacheless, single-environment fake
// Estimator; the fakes embedding it supply the two pricing methods. The
// environment list is built once: Server.EnvByID asks for it on every
// request, and a fake that allocated there would drown the serving
// path's own count in TestCoalescerAllocsPerRequest.
type fakeBase struct{ envs []*qcfe.Environment }

func newFakeBase() fakeBase { return fakeBase{envs: []*qcfe.Environment{{ID: 0}}} }

func (f fakeBase) ModelName() string                                        { return "fake" }
func (f fakeBase) BenchmarkName() string                                    { return "fake" }
func (f fakeBase) Environments() []*qcfe.Environment                        { return f.envs }
func (f fakeBase) Generation() uint64                                       { return 1 }
func (f fakeBase) CachedEstimate(*qcfe.Environment, string) (float64, bool) { return 0, false }
func (f fakeBase) CacheStats() (qcfe.CacheStats, bool)                      { return qcfe.CacheStats{}, false }

// gateEstimator is a cacheless fake that prices a query as a pure
// function of its text and records every batch call. Its first batch
// call announces itself on parked and then waits for release, so a test
// can build a backlog behind a flush that is provably still pricing.
type gateEstimator struct {
	fakeBase
	parked  chan struct{}
	release chan struct{}
	once    sync.Once

	mu      sync.Mutex
	batches [][]string
}

func newGateEstimator() *gateEstimator {
	return &gateEstimator{
		fakeBase: newFakeBase(),
		parked:   make(chan struct{}),
		release:  make(chan struct{}),
	}
}

// open releases the parked batch call; safe to call more than once.
func (f *gateEstimator) open() { f.once.Do(func() { close(f.release) }) }

func gatePrice(sql string) float64 {
	h := fnv.New32a()
	h.Write([]byte(sql))
	return float64(h.Sum32()) / 7
}

func (f *gateEstimator) EstimateSQL(_ *qcfe.Environment, sql string) (float64, error) {
	return gatePrice(sql), nil
}
func (f *gateEstimator) EstimateSQLBatchCtx(_ context.Context, _ *qcfe.Environment, sqls []string) ([]float64, error) {
	f.mu.Lock()
	f.batches = append(f.batches, append([]string(nil), sqls...))
	first := len(f.batches) == 1
	f.mu.Unlock()
	if first {
		close(f.parked)
		<-f.release
	}
	ms := make([]float64, len(sqls))
	for i, sql := range sqls {
		ms[i] = gatePrice(sql)
	}
	return ms, nil
}

// coalesceModes names the batcher configurations the policy tests run
// against.
var coalesceModes = []struct {
	name string
	opts Options
}{
	{"serial", Options{MaxBatch: 4}},
}

// TestIdleMissFlushesAtOnce is the idle half of the work-conserving
// policy: gather takes what is queued and never waits for more, so a
// lone request on an idle server is priced in a batch of one.
func TestIdleMissFlushesAtOnce(t *testing.T) {
	t.Run("gather", func(t *testing.T) {
		srv := New(newGateEstimator(), Options{})
		first := &request{}
		co := newCoalescer()
		srv.gather(co, first)
		if len(co.batch) != 1 || co.batch[0] != first {
			t.Fatalf("gather on an empty queue = %d requests, want just the first", len(co.batch))
		}
	})
	for _, mode := range coalesceModes {
		t.Run(mode.name, func(t *testing.T) {
			fake := newGateEstimator()
			fake.open() // nothing parks
			srv := New(fake, mode.opts)
			runServer(t, srv)
			got, err := srv.Estimate(context.Background(), 0, "SELECT 1")
			if err != nil {
				t.Fatal(err)
			}
			if want := gatePrice("SELECT 1"); got != want {
				t.Fatalf("served %v != per-query %v", got, want)
			}
			if st := srv.Stats(); st.Flushes != 1 || st.Coalesced != 0 {
				t.Fatalf("stats = %+v, want 1 flush, 0 coalesced", st)
			}
		})
	}
}

// TestBacklogFormsBatches is the backlog half: requests that queue up
// while a flush is pricing drain in ceil(K/MaxBatch) full-as-possible
// micro-batches, in arrival order, with per-query-exact replies.
// Requests are enqueued straight onto the queue from the test goroutine
// so arrival order is the program order below.
func TestBacklogFormsBatches(t *testing.T) {
	for _, mode := range coalesceModes {
		t.Run(mode.name, func(t *testing.T) {
			fake := newGateEstimator()
			srv := New(fake, mode.opts)
			maxBatch := mode.opts.MaxBatch

			var reqs []*request
			enqueue := func(n int) {
				for i := 0; i < n; i++ {
					r := &request{
						env:   fake.envs[0],
						sql:   fmt.Sprintf("SELECT %d", len(reqs)),
						reply: make(chan result, 1),
						enq:   time.Now(),
					}
					reqs = append(reqs, r)
					srv.queue <- r
				}
			}
			// Queue one full batch before the batcher starts. A full gather
			// returns without looking at the queue again, so once its flush
			// is parked the batcher cannot touch the queue until the
			// release.
			enqueue(maxBatch)
			runServer(t, srv)
			t.Cleanup(fake.open) // a failed assertion must not strand the batcher
			<-fake.parked

			const k = 2*4 + 3 // two full batches and a partial one at MaxBatch 4
			enqueue(k)
			if n := len(srv.queue); n != k {
				t.Fatalf("queue depth = %d with the batcher parked, want %d", n, k)
			}
			fake.open()

			for i, r := range reqs {
				select {
				case res := <-r.reply:
					if res.err != nil {
						t.Fatalf("request %d: %v", i, res.err)
					}
					if want := gatePrice(r.sql); res.ms != want {
						t.Fatalf("request %d: served %v != per-query %v", i, res.ms, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("request %d never answered", i)
				}
			}

			// Every flush, parked or backlogged, is the next MaxBatch
			// arrivals: the parked full one, then ceil(k/MaxBatch) more.
			var want [][]string
			for lo := 0; lo < len(reqs); lo += maxBatch {
				hi := lo + maxBatch
				if hi > len(reqs) {
					hi = len(reqs)
				}
				var b []string
				for _, r := range reqs[lo:hi] {
					b = append(b, r.sql)
				}
				want = append(want, b)
			}
			fake.mu.Lock()
			got := fake.batches
			fake.mu.Unlock()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batches = %v\nwant      %v", got, want)
			}
			st := srv.Stats()
			if wantFlushes := int64(1 + (k+maxBatch-1)/maxBatch); st.Flushes != wantFlushes {
				t.Fatalf("flushes = %d, want %d", st.Flushes, wantFlushes)
			}
			if st.Coalesced != int64(len(reqs)) {
				t.Fatalf("coalesced = %d, want all %d requests", st.Coalesced, len(reqs))
			}
		})
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

func (f *stormEstimator) EstimateSQL(*qcfe.Environment, string) (float64, error) {
	f.solo.Add(1)
	return 1, nil
}
func (f *stormEstimator) EstimateSQLBatchCtx(ctx context.Context, _ *qcfe.Environment, sqls []string) ([]float64, error) {
	f.entered <- len(sqls)
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestShutdownNoFallbackStorm: when the server is cancelled while a
// coalesced batch is pricing, the batch must fail fast with the
// context's error — the per-request solo fallback (meant for query
// faults) must never re-price a batch that only failed because the
// server is shutting down.
func TestShutdownNoFallbackStorm(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		fake := &stormEstimator{fakeBase: newFakeBase(), entered: make(chan int, 1)}
		srv := New(fake, Options{MaxBatch: 64})

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

// TestEstimateAfterRunReturns: once Run has returned nobody drains the
// queue, so a miss must fail with the shutdown error instead of
// enqueueing and waiting forever for a reply.
func TestEstimateAfterRunReturns(t *testing.T) {
	fake := newGateEstimator()
	fake.open()
	srv := New(fake, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := srv.Estimate(context.Background(), 0, "SELECT 1")
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "shutting down") || !errors.Is(err, context.Canceled) {
			t.Fatalf("Estimate after Run returned: err = %v, want the shutdown error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Estimate after Run returned hung")
	}
	if st := srv.Stats(); st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}
}

// freeEstimator is a fake whose batch call costs nothing: constant
// answers out of one preallocated slice (only the batcher goroutine
// reads it, one flush at a time). Behind it every allocation a request
// causes belongs to the serving machinery — enqueue, gather, group,
// flush, reply.
type freeEstimator struct {
	fakeBase
	ms []float64
}

func (f *freeEstimator) EstimateSQL(*qcfe.Environment, string) (float64, error) { return 0, nil }
func (f *freeEstimator) EstimateSQLBatchCtx(_ context.Context, _ *qcfe.Environment, sqls []string) ([]float64, error) {
	return f.ms[:len(sqls)], nil
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// TestCoalescerAllocsPerRequest holds the batcher's own cost to its
// pooled steady state: requests come from reqPool, the gathered batch,
// the env-grouping map, its order slice and the SQL scratch live in the
// coalescer and are reset, not rebuilt, so a miss through
// Estimate → queue → gather → flush → reply allocates nothing of its
// own. Measured on a 2-vCPU box: 0.001–0.002 allocations per request
// (41–68 mallocs over 32 000 requests — the 16 worker goroutines and the
// odd reqPool refill). The ceiling is one allocation per 25 requests —
// below the 1/16 a single per-flush allocation would cost even if every
// flush were a full MaxBatch, so un-pooling any one piece of scratch
// fails it whatever batch sizes the scheduler happens to form.
func TestCoalescerAllocsPerRequest(t *testing.T) {
	if raceEnabled() {
		t.Skip("under -race sync.Pool drops a share of Puts on purpose, so reqPool misses and the count moves")
	}
	const (
		workers             = 16
		perWorker           = 2000
		maxAllocsPerRequest = 0.04
	)
	srv := New(&freeEstimator{fakeBase: newFakeBase(), ms: make([]float64, workers)}, Options{MaxBatch: workers})
	runServer(t, srv)
	drive := func(n int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if ms, err := srv.Estimate(context.Background(), 0, "SELECT 1"); err != nil || ms != 0 {
						t.Errorf("Estimate = (%v, %v), want (0, nil)", ms, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	drive(perWorker / 10) // fill reqPool, grow the coalescer's scratch
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	drive(perWorker)
	runtime.ReadMemStats(&m1)
	st := srv.Stats()
	per := float64(m1.Mallocs-m0.Mallocs) / float64(workers*perWorker)
	t.Logf("%.4f allocations per coalesced request (%d mallocs over %d requests, mean batch %.2f)",
		per, m1.Mallocs-m0.Mallocs, workers*perWorker, st.MeanBatch)
	if per > maxAllocsPerRequest {
		t.Fatalf("a coalesced request allocates %.4f objects in the serving machinery, ceiling %.2f", per, maxAllocsPerRequest)
	}
}
