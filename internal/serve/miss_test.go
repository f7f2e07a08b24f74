package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	qcfe "repro"
	"repro/internal/httpx"
)

// fakeBase is the identity half of a cacheless, single-environment fake
// Estimator; the fakes embedding it supply the two pricing methods. The
// environment list is built once: Server.EnvByID asks for it on every
// request, and a fake that allocated there would drown the serving
// path's own count in TestEstimateMissZeroAlloc.
type fakeBase struct{ envs []*qcfe.Environment }

func newFakeBase() fakeBase { return fakeBase{envs: []*qcfe.Environment{{ID: 0}}} }

func (f fakeBase) ModelName() string                                        { return "fake" }
func (f fakeBase) BenchmarkName() string                                    { return "fake" }
func (f fakeBase) Environments() []*qcfe.Environment                        { return f.envs }
func (f fakeBase) Generation() uint64                                       { return 1 }
func (f fakeBase) CachedEstimate(*qcfe.Environment, string) (float64, bool) { return 0, false }
func (f fakeBase) CacheStats() (qcfe.CacheStats, bool)                      { return qcfe.CacheStats{}, false }

const (
	// heldSQL parks gateEstimator's EstimateSQL until the test opens it.
	heldSQL = "SELECT held"
	// panicSQL makes either of gateEstimator's pricing calls panic.
	panicSQL = "PANIC"
)

// gateEstimator is a cacheless fake that prices a query as a pure
// function of its text and records, per query, the goroutine that priced
// it. Pricing heldSQL, by either call, announces itself on parked and
// then waits for release, so a test can hold one miss provably inside
// the estimator.
// Like the library's, its batch call fails with the context's error when
// the context has ended. A query equal to panicSQL panics.
type gateEstimator struct {
	fakeBase
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
	calls   atomic.Int64

	mu      sync.Mutex
	callers map[string]int64
}

func newGateEstimator() *gateEstimator {
	return &gateEstimator{
		fakeBase: newFakeBase(),
		parked:   make(chan struct{}),
		release:  make(chan struct{}),
		callers:  make(map[string]int64),
	}
}

// open releases the held call; safe to call more than once.
func (f *gateEstimator) open() { f.once.Do(func() { close(f.release) }) }

// caller reports the goroutine that priced sql.
func (f *gateEstimator) caller(sql string) (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.callers[sql]
	return g, ok
}

func gatePrice(sql string) float64 {
	if sql == panicSQL {
		panic("gateEstimator: " + panicSQL)
	}
	h := fnv.New32a()
	h.Write([]byte(sql))
	return float64(h.Sum32()) / 7
}

// enter counts a pricing call, records its goroutine against each query
// and holds it while it carries heldSQL.
func (f *gateEstimator) enter(sqls ...string) {
	f.calls.Add(1)
	g := goid()
	f.mu.Lock()
	for _, sql := range sqls {
		f.callers[sql] = g
	}
	f.mu.Unlock()
	if slices.Contains(sqls, heldSQL) {
		close(f.parked)
		<-f.release
	}
}

func (f *gateEstimator) EstimateSQL(_ *qcfe.Environment, sql string) (float64, error) {
	f.enter(sql)
	return gatePrice(sql), nil
}

func (f *gateEstimator) EstimateSQLBatchCtx(ctx context.Context, _ *qcfe.Environment, sqls []string) ([]float64, error) {
	f.enter(sqls...)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ms := make([]float64, len(sqls))
	for i, sql := range sqls {
		ms[i] = gatePrice(sql)
	}
	return ms, nil
}

// goid returns the calling goroutine's ID, read off its stack header
// ("goroutine 42 [running]:").
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// answer is one Estimate call's outcome, as a test goroutine reports it,
// with the ID of the goroutine that called Estimate.
type answer struct {
	sql string
	ms  float64
	err error
	g   int64
}

// estimateAsync runs srv.Estimate on its own goroutine and reports on out.
func estimateAsync(ctx context.Context, srv *Server, sql string, out chan<- answer) {
	go func() {
		ms, err := srv.Estimate(ctx, 0, sql)
		out <- answer{sql, ms, err, goid()}
	}()
}

// await reads one answer, failing the test if it takes too long.
func await(t *testing.T, out <-chan answer, what string) answer {
	t.Helper()
	select {
	case a := <-out:
		return a
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never answered", what)
		return answer{}
	}
}

// checkExact fails unless a is the per-query price of its SQL, priced on
// the goroutine that asked for it.
func checkExact(t *testing.T, f *gateEstimator, a answer) {
	t.Helper()
	if a.err != nil {
		t.Fatalf("%s: %v", a.sql, a.err)
	}
	if want := gatePrice(a.sql); a.ms != want {
		t.Fatalf("%s: served %v != per-query %v", a.sql, a.ms, want)
	}
	if g, _ := f.caller(a.sql); g != a.g {
		t.Fatalf("%s: priced on goroutine %d, want its caller's (%d)", a.sql, g, a.g)
	}
}

// settleGoroutines waits until the goroutine count is back at base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMissesPriceConcurrently: each miss is priced on its caller's own
// goroutine, so a miss held inside the estimator delays no other — a
// second miss is answered while the first is still being priced.
func TestMissesPriceConcurrently(t *testing.T) {
	fake := newGateEstimator()
	t.Cleanup(fake.open) // a failed assertion must not strand the held miss
	srv := New(fake, Options{})
	held := make(chan answer, 1)
	estimateAsync(context.Background(), srv, heldSQL, held)
	<-fake.parked

	second := make(chan answer, 1)
	estimateAsync(context.Background(), srv, "SELECT 2", second)
	checkExact(t, fake, await(t, second, "a miss behind a held one"))
	select {
	case a := <-held:
		t.Fatalf("the held miss answered (%v, %v) before it was released", a.ms, a.err)
	default:
	}
	fake.open()
	checkExact(t, fake, await(t, held, "the released miss"))
	if st := srv.Stats(); st.Requests != 2 || st.Flushes != 2 || st.Coalesced != 0 || st.MeanBatch != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 2 requests, 2 priced misses, mean batch 1, no errors", st)
	}
}

// TestIdleMissFlushesAtOnce: on an idle server a lone miss is priced at
// once, by one estimator call on its caller's own goroutine, and counts
// as one priced miss with nothing coalesced.
func TestIdleMissFlushesAtOnce(t *testing.T) {
	// The subtest keeps the test ID CI and the floor list know.
	t.Run("serial", func(t *testing.T) {
		fake := newGateEstimator()
		srv := New(fake, Options{})
		got, err := srv.Estimate(context.Background(), 0, "SELECT 1")
		if err != nil {
			t.Fatal(err)
		}
		if want := gatePrice("SELECT 1"); got != want {
			t.Fatalf("served %v != per-query %v", got, want)
		}
		if st := srv.Stats(); st.Flushes != 1 || st.Coalesced != 0 || st.MeanBatch != 1 {
			t.Fatalf("stats = %+v, want 1 priced miss, 0 coalesced, mean batch 1", st)
		}
		if n := fake.calls.Load(); n != 1 {
			t.Fatalf("the estimator was called %d times, want 1", n)
		}
		if g, ok := fake.caller("SELECT 1"); !ok || g != goid() {
			t.Fatalf("priced on goroutine %d (recorded %v), want the caller's (%d)", g, ok, goid())
		}
	})
}

// TestCancelledMissIsNotPriced: a miss whose context has already ended
// returns the context's error and never reaches the estimator.
func TestCancelledMissIsNotPriced(t *testing.T) {
	fake := newGateEstimator()
	srv := New(fake, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ms, err := srv.Estimate(ctx, 0, "SELECT gone"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled miss = (%v, %v), want context.Canceled", ms, err)
	}
	if n := fake.calls.Load(); n != 0 {
		t.Fatalf("the estimator was called %d times, want 0", n)
	}
	if st := srv.Stats(); st.Errors != 1 || st.Flushes != 0 {
		t.Fatalf("stats = %+v, want 1 error, 0 priced misses", st)
	}
}

// TestPanicCostsOnlyItsRequest: a panic while pricing a miss fails that
// request with ErrPricingPanic (HTTP 500), and only that request: a miss
// being priced at the same moment gets its answer, the server serves the
// next misses, and no goroutine is left behind. /shadow prices the same
// way: its panic answers 500 and counts as an error.
func TestPanicCostsOnlyItsRequest(t *testing.T) {
	base := runtime.NumGoroutine()
	fake := newGateEstimator()
	t.Cleanup(fake.open)
	srv := New(fake, Options{})
	held := make(chan answer, 1)
	estimateAsync(context.Background(), srv, heldSQL, held)
	<-fake.parked

	_, err := srv.Estimate(context.Background(), 0, panicSQL)
	if !errors.Is(err, ErrPricingPanic) {
		t.Fatalf("err = %v, want ErrPricingPanic", err)
	}
	if code := httpx.StatusFor(err); code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", code)
	}
	fake.open()
	checkExact(t, fake, await(t, held, "the miss priced beside the panic"))
	if st := srv.Stats(); st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}
	rec := httptest.NewRecorder()
	body := fmt.Sprintf(`{"env":0,"sql":%q,"actual_ms":1}`, panicSQL)
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shadow", strings.NewReader(body)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("/shadow status %d (%s), want 500", rec.Code, rec.Body)
	}
	if st := srv.Stats(); st.Errors != 2 {
		t.Fatalf("errors after /shadow = %d, want 2", st.Errors)
	}
	for i := 0; i < 3; i++ {
		sql := fmt.Sprintf("SELECT after %d", i)
		ms, err := srv.Estimate(context.Background(), 0, sql)
		if err != nil || ms != gatePrice(sql) {
			t.Fatalf("after the panic: Estimate(%q) = (%v, %v)", sql, ms, err)
		}
	}
	settleGoroutines(t, base)
}

// TestPanicCostsOnlyItsBatch: a panic inside the estimator's batched
// path fails that /estimate_batch request with ErrPricingPanic — an
// in-process caller gets the error instead of unwinding, an HTTP client
// gets a 500 instead of a dropped connection — counts as an error, and
// the next batch is served.
func TestPanicCostsOnlyItsBatch(t *testing.T) {
	fake := newGateEstimator()
	srv := New(fake, Options{})
	if _, err := srv.EstimateBatch(context.Background(), 0, []string{"SELECT 1", panicSQL}); !errors.Is(err, ErrPricingPanic) {
		t.Fatalf("err = %v, want ErrPricingPanic", err)
	}
	if st := srv.Stats(); st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}
	rec := httptest.NewRecorder()
	body := fmt.Sprintf(`{"env":0,"sqls":["SELECT 1",%q]}`, panicSQL)
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate_batch", strings.NewReader(body)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("/estimate_batch status %d (%s), want 500", rec.Code, rec.Body)
	}
	if st := srv.Stats(); st.Errors != 2 {
		t.Fatalf("errors = %d, want 2", st.Errors)
	}
	sqls := []string{"SELECT 1", "SELECT 2"}
	ms, err := srv.EstimateBatch(context.Background(), 0, sqls)
	if err != nil {
		t.Fatalf("the batch after the panic: %v", err)
	}
	for i, sql := range sqls {
		if ms[i] != gatePrice(sql) {
			t.Fatalf("%s: served %v != per-query %v", sql, ms[i], gatePrice(sql))
		}
	}
}

// TestNoGoroutineLeftBehind: a Server starts no goroutine of its own,
// so New plus a thousand concurrent misses leaves the goroutine count
// where it was.
func TestNoGoroutineLeftBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := New(newGateEstimator(), Options{})
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("New started %d goroutines", n-base)
	}
	const workers, perWorker = 8, 125
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sql := fmt.Sprintf("SELECT %d", w*perWorker+i)
				if ms, err := srv.Estimate(context.Background(), 0, sql); err != nil || ms != gatePrice(sql) {
					t.Errorf("Estimate(%q) = (%v, %v)", sql, ms, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := srv.Stats(); st.Requests != workers*perWorker || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	settleGoroutines(t, base)
}

// freeEstimator is a fake whose pricing costs nothing and allocates
// nothing. Behind it every allocation a request causes belongs to the
// serving path.
type freeEstimator struct{ fakeBase }

func (f freeEstimator) EstimateSQL(*qcfe.Environment, string) (float64, error) { return 0, nil }
func (f freeEstimator) EstimateSQLBatchCtx(context.Context, *qcfe.Environment, []string) ([]float64, error) {
	return nil, nil
}

// TestEstimateMissZeroAlloc: the miss path adds nothing to what pricing
// itself allocates — environment lookup, the cache probe, the context
// check, the panic guard, counters and the latency histogram allocate 0
// objects per miss.
func TestEstimateMissZeroAlloc(t *testing.T) {
	srv := New(freeEstimator{newFakeBase()}, Options{})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		if ms, err := srv.Estimate(ctx, 0, "SELECT 1"); err != nil || ms != 0 {
			t.Fatalf("Estimate = (%v, %v), want (0, nil)", ms, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a miss allocates %.2f objects in the serving path, want 0", allocs)
	}
}
