package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
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
// path's own count in TestCoalescerAllocsPerRequest.
type fakeBase struct{ envs []*qcfe.Environment }

func newFakeBase() fakeBase { return fakeBase{envs: []*qcfe.Environment{{ID: 0}}} }

func (f fakeBase) ModelName() string                                        { return "fake" }
func (f fakeBase) BenchmarkName() string                                    { return "fake" }
func (f fakeBase) Environments() []*qcfe.Environment                        { return f.envs }
func (f fakeBase) Generation() uint64                                       { return 1 }
func (f fakeBase) CachedEstimate(*qcfe.Environment, string) (float64, bool) { return 0, false }
func (f fakeBase) CacheStats() (qcfe.CacheStats, bool)                      { return qcfe.CacheStats{}, false }

// panicSQL makes gateEstimator's batch call panic.
const panicSQL = "PANIC"

// gateEstimator is a cacheless fake that prices a query as a pure
// function of its text and records every batch call and the goroutine
// that made it. Its first batch call announces itself on parked and then
// waits for release, so a test can build a backlog behind a leader that
// is provably still pricing. Like the library's, its batch call fails
// with the context's error when the context has ended; solo counts the
// per-query fallback calls. A batch holding panicSQL panics.
type gateEstimator struct {
	fakeBase
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
	solo    atomic.Int64

	mu      sync.Mutex
	batches [][]string
	callers []int64
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

func (f *gateEstimator) recorded() (batches [][]string, callers []int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.batches, f.callers
}

func gatePrice(sql string) float64 {
	h := fnv.New32a()
	h.Write([]byte(sql))
	return float64(h.Sum32()) / 7
}

func (f *gateEstimator) EstimateSQL(_ *qcfe.Environment, sql string) (float64, error) {
	f.solo.Add(1)
	return gatePrice(sql), nil
}
func (f *gateEstimator) EstimateSQLBatchCtx(ctx context.Context, _ *qcfe.Environment, sqls []string) ([]float64, error) {
	f.mu.Lock()
	f.batches = append(f.batches, append([]string(nil), sqls...))
	f.callers = append(f.callers, goid())
	first := len(f.batches) == 1
	f.mu.Unlock()
	if first {
		close(f.parked)
		<-f.release
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ms := make([]float64, len(sqls))
	for i, sql := range sqls {
		if sql == panicSQL {
			panic("gateEstimator: " + panicSQL)
		}
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

// answer is one Estimate call's outcome, as a test goroutine reports it.
type answer struct {
	sql string
	ms  float64
	err error
}

// estimateAsync runs srv.Estimate on its own goroutine and reports on out.
func estimateAsync(ctx context.Context, srv *Server, sql string, out chan<- answer) {
	go func() {
		ms, err := srv.Estimate(ctx, 0, sql)
		out <- answer{sql, ms, err}
	}()
}

// pendingLen reads the length of srv's pending list.
func pendingLen(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.pending)
}

// waitPending blocks until n misses wait in srv's pending list, so a
// test that adds one request at a time fixes their arrival order.
func waitPending(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pendingLen(srv) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests pending, want %d", pendingLen(srv), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitIdle blocks until srv has no leader. The last leader answers its
// batch before it looks for more, so a test can hold every answer
// before the server is idle.
func waitIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		busy, n := srv.busy, len(srv.pending)
		srv.mu.Unlock()
		if !busy && n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still busy with %d pending", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// holdLeader marks srv busy as though a leader were pricing, so every
// miss from now on waits in the pending list. srv.handOn() ends the
// held turn and hands the backlog on as the next batch.
func holdLeader(srv *Server) {
	srv.mu.Lock()
	srv.busy = true
	srv.mu.Unlock()
}

// collect reads n answers, failing the test if one takes too long.
func collect(t *testing.T, out <-chan answer, n int) map[string]answer {
	t.Helper()
	got := make(map[string]answer, n)
	for i := 0; i < n; i++ {
		select {
		case a := <-out:
			got[a.sql] = a
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d requests never answered", n-i, n)
		}
	}
	return got
}

// checkExact fails unless every answer is the per-query price of its SQL.
func checkExact(t *testing.T, got map[string]answer) {
	t.Helper()
	for sql, a := range got {
		if a.err != nil {
			t.Fatalf("%s: %v", sql, a.err)
		}
		if want := gatePrice(sql); a.ms != want {
			t.Fatalf("%s: served %v != per-query %v", sql, a.ms, want)
		}
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

// TestIdleMissFlushesAtOnce is the idle half of the work-conserving
// policy: a lone miss on an idle server is a batch of one, priced at
// once on the caller's own goroutine.
func TestIdleMissFlushesAtOnce(t *testing.T) {
	t.Run("gather", func(t *testing.T) {
		srv := New(newGateEstimator(), Options{})
		holdLeader(srv)
		first := &request{}
		srv.pending = append(srv.pending, first)
		if next := srv.takeBatch(); next != first || len(srv.co.batch) != 1 {
			t.Fatalf("taking a batch from one pending request = %d requests, want just it", len(srv.co.batch))
		}
		if next := srv.takeBatch(); next != nil || srv.busy {
			t.Fatalf("taking a batch from an empty list = %v, busy=%v; want nil and an idle server", next, srv.busy)
		}
	})
	// The subtest keeps the test ID CI and the floor list know.
	t.Run("serial", func(t *testing.T) {
		fake := newGateEstimator()
		fake.open() // nothing parks
		srv := New(fake, Options{})
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
		if _, callers := fake.recorded(); len(callers) != 1 || callers[0] != goid() {
			t.Fatalf("priced on goroutines %v, want only the caller's (%d)", callers, goid())
		}
	})
}

// TestBacklogFormsBatches is the backlog half: misses that arrive while
// a leader is pricing drain, once it is done, in arrival-ordered chunks
// of MaxBatch, each priced by the goroutine of its first request, with
// per-query-exact replies. Followers join one at a time, so arrival
// order is the program order below.
func TestBacklogFormsBatches(t *testing.T) {
	// The subtest keeps the test ID CI and the floor list know.
	t.Run("serial", testBacklogFormsBatches)
}

func testBacklogFormsBatches(t *testing.T) {
	fake := newGateEstimator()
	t.Cleanup(fake.open) // a failed assertion must not strand the leader
	srv := New(fake, Options{})
	out := make(chan answer, 1)
	estimateAsync(context.Background(), srv, "SELECT leader", out)
	<-fake.parked

	const k = 2*MaxBatch + 3 // two full batches and a partial one
	follow := make(chan answer, k)
	var sqls []string
	for i := 0; i < k; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT %d", i))
		estimateAsync(context.Background(), srv, sqls[i], follow)
		waitPending(t, srv, i+1)
	}
	fake.open()
	checkExact(t, collect(t, out, 1))
	checkExact(t, collect(t, follow, k))

	// The leader's own batch, then the backlog in arrival order, MaxBatch
	// at a time.
	want := [][]string{{"SELECT leader"}}
	for lo := 0; lo < k; lo += MaxBatch {
		want = append(want, sqls[lo:min(lo+MaxBatch, k)])
	}
	got, callers := fake.recorded()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batches = %v\nwant      %v", got, want)
	}
	for i := 1; i < len(callers); i++ {
		if callers[i] == callers[i-1] {
			t.Fatalf("batches %d and %d priced on one goroutine: leadership was not handed on", i-1, i)
		}
	}
	st := srv.Stats()
	if wantFlushes := int64(len(want)); st.Flushes != wantFlushes {
		t.Fatalf("flushes = %d, want %d", st.Flushes, wantFlushes)
	}
	if st.Coalesced != k {
		t.Fatalf("coalesced = %d, want the %d backlogged requests", st.Coalesced, k)
	}
	waitIdle(t, srv)
}

// TestCancelPendingFollower: a follower whose context ends while it
// waits in the pending list leaves it, returns the context's error, and
// is never priced.
func TestCancelPendingFollower(t *testing.T) {
	fake := newGateEstimator()
	t.Cleanup(fake.open)
	srv := New(fake, Options{})
	out := make(chan answer, 2)
	estimateAsync(context.Background(), srv, "SELECT leader", out)
	<-fake.parked

	ctx, cancel := context.WithCancel(context.Background())
	estimateAsync(ctx, srv, "SELECT gone", out)
	waitPending(t, srv, 1)
	cancel()
	if a := collect(t, out, 1)["SELECT gone"]; !errors.Is(a.err, context.Canceled) {
		t.Fatalf("cancelled follower = (%v, %v), want context.Canceled", a.ms, a.err)
	}
	if n := pendingLen(srv); n != 0 {
		t.Fatalf("%d pending after the follower left, want 0", n)
	}
	fake.open()
	checkExact(t, collect(t, out, 1))
	if got, _ := fake.recorded(); !reflect.DeepEqual(got, [][]string{{"SELECT leader"}}) {
		t.Fatalf("batches = %v, want only the leader's", got)
	}
	if st := srv.Stats(); st.Errors != 1 || st.Flushes != 1 {
		t.Fatalf("stats = %+v, want 1 error, 1 flush", st)
	}
}

// TestCancelTakenLeaderStillLeads: a follower whose context ends after
// a batch took it as its first request keeps its role. It leads the
// batch, the others get their answers, and it returns its own.
func TestCancelTakenLeaderStillLeads(t *testing.T) {
	fake := newGateEstimator()
	fake.open()
	srv := New(fake, Options{})
	holdLeader(srv)
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan answer, 3)
	sqls := []string{"SELECT first", "SELECT 1", "SELECT 2"}
	estimateAsync(ctx, srv, sqls[0], out)
	waitPending(t, srv, 1)
	for i, sql := range sqls[1:] {
		estimateAsync(context.Background(), srv, sql, out)
		waitPending(t, srv, i+2)
	}
	next := srv.takeBatch()
	if next == nil || next.sql != sqls[0] {
		t.Fatalf("the batch is led by %v, want %q", next, sqls[0])
	}
	// Cancel between the take and the wake-up. Whichever of the two the
	// first request sees first, it is off the pending list and must lead.
	cancel()
	next.reply <- result{lead: true}
	checkExact(t, collect(t, out, len(sqls)))
	if got, _ := fake.recorded(); !reflect.DeepEqual(got, [][]string{sqls}) {
		t.Fatalf("batches = %v, want one batch of %v", got, sqls)
	}
	if st := srv.Stats(); st.Errors != 0 || st.Flushes != 1 {
		t.Fatalf("stats = %+v, want 0 errors, 1 flush", st)
	}
	waitIdle(t, srv)
}

// TestCancelledLeaderKeepsFollowers: a batch is priced under a context
// no caller owns, so a leader whose client gives up mid-pricing neither
// fails its batch nor the followers it hands on to, and the per-query
// fallback (kept for query errors) never runs.
func TestCancelledLeaderKeepsFollowers(t *testing.T) {
	fake := newGateEstimator()
	t.Cleanup(fake.open)
	srv := New(fake, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	lead := make(chan answer, 1)
	estimateAsync(ctx, srv, "SELECT leader", lead)
	<-fake.parked
	follow := make(chan answer, 2)
	for i, sql := range []string{"SELECT 1", "SELECT 2"} {
		estimateAsync(context.Background(), srv, sql, follow)
		waitPending(t, srv, i+1)
	}
	cancel()
	fake.open()
	checkExact(t, collect(t, lead, 1))
	checkExact(t, collect(t, follow, 2))
	if n := fake.solo.Load(); n != 0 {
		t.Fatalf("solo fallback ran %d times, want 0", n)
	}
	if st := srv.Stats(); st.Errors != 0 || st.Flushes != 2 {
		t.Fatalf("stats = %+v, want 0 errors, 2 flushes", st)
	}
}

// TestPanicCostsOnlyItsBatch: a panic while pricing fails every request
// of that batch with ErrPricingPanic (HTTP 500), and only that batch:
// the server hands on, serves the next misses, and leaves no goroutine
// behind.
func TestPanicCostsOnlyItsBatch(t *testing.T) {
	base := runtime.NumGoroutine()
	fake := newGateEstimator()
	fake.open()
	srv := New(fake, Options{})
	holdLeader(srv)
	out := make(chan answer, 3)
	batch := []string{panicSQL, "SELECT 1", "SELECT 2"}
	for i, sql := range batch {
		estimateAsync(context.Background(), srv, sql, out)
		waitPending(t, srv, i+1)
	}
	srv.handOn()
	for sql, a := range collect(t, out, len(batch)) {
		if !errors.Is(a.err, ErrPricingPanic) {
			t.Fatalf("%s: err = %v, want ErrPricingPanic", sql, a.err)
		}
		if code := httpx.StatusFor(a.err); code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500", sql, code)
		}
	}
	if st := srv.Stats(); st.Errors != int64(len(batch)) {
		t.Fatalf("errors = %d, want %d", st.Errors, len(batch))
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

// TestNoGoroutineLeftBehind: a Server starts no goroutine of its own,
// so New plus a thousand concurrent misses leaves the goroutine count
// where it was.
func TestNoGoroutineLeftBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	fake := newGateEstimator()
	fake.open()
	srv := New(fake, Options{})
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

// freeEstimator is a fake whose batch call costs nothing: constant
// answers out of one preallocated slice (only the current leader reads
// it, one flush at a time). Behind it every allocation a request causes
// belongs to the serving machinery — join, take, group, flush, reply.
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

// TestCoalescerAllocsPerRequest holds the combiner's own cost to its
// pooled steady state: requests come from reqPool, and the batch, the
// env-grouping map, its order slice, the SQL scratch and the pending
// list are reset, not rebuilt, so a miss through
// Estimate → pending → take → flush → reply allocates nothing of its
// own. The ceiling is one allocation per 25 requests — below the 1/16 a
// single per-flush allocation would cost even if every flush held all
// 16 workers' requests, so un-pooling any one piece of scratch fails it
// whatever batch sizes the scheduler happens to form.
func TestCoalescerAllocsPerRequest(t *testing.T) {
	if raceEnabled() {
		t.Skip("under -race sync.Pool drops a share of Puts on purpose, so reqPool misses and the count moves")
	}
	const (
		workers             = 16
		perWorker           = 2000
		maxAllocsPerRequest = 0.04
	)
	srv := New(&freeEstimator{fakeBase: newFakeBase(), ms: make([]float64, workers)}, Options{})
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
