// Package serve is the context-aware serving layer over a trained cost
// estimator: a long-lived Server object constructed once from a loaded
// artifact and queried concurrently, in the mold of a query engine built
// once from options with context.Context plumbed through every
// execution path.
//
// A single-query request (Server.Estimate) is answered from the query
// cache's prediction tier when it is warm; a miss is priced on the
// caller's own goroutine by the estimator's EstimateSQL, so misses from
// different callers run in parallel and nothing waits on anyone else's
// pricing. A client-assembled batch (Server.EstimateBatch) runs through
// the estimator's batched inference path. Both answer bit-identically
// to the library, and the server starts no goroutine.
//
// The estimator behind the server is hot-swappable: SwapEstimator is a
// single atomic pointer store, every request path snapshots the
// estimator exactly once at its own start, and the query cache's
// generation stamping (internal/qcache) makes the swap cache-safe —
// together they let internal/online install a retrained model under
// live traffic with no lock, no drain, and no torn or stale answers.
package serve

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	qcfe "repro"
	"repro/internal/httpx"
	"repro/internal/obs"
)

// Estimator is the slice of the qcfe API the server needs.
// *qcfe.CostEstimator satisfies it; tests substitute fakes to probe the
// serving paths.
type Estimator interface {
	ModelName() string
	BenchmarkName() string
	Environments() []*qcfe.Environment
	EstimateSQL(env *qcfe.Environment, sql string) (float64, error)
	EstimateSQLBatchCtx(ctx context.Context, env *qcfe.Environment, sqls []string) ([]float64, error)
	// CachedEstimate returns the memoized prediction for an exact
	// (environment, SQL text) pair when an attached query cache can
	// answer without planning or inference; ok=false otherwise (no
	// cache, cold key, or stale generation). Estimate probes it first,
	// so warm hits are never priced.
	CachedEstimate(env *qcfe.Environment, sql string) (float64, bool)
	// CacheStats snapshots the attached query cache's counters; ok is
	// false when no cache is attached.
	CacheStats() (qcfe.CacheStats, bool)
	// Generation identifies the artifact the estimator serves: equal
	// generations mean byte-identical artifacts (and so bit-identical
	// predictions). /healthz advertises it and the fleet rollout
	// protocol (internal/router) gates on it.
	Generation() uint64
}

// Monitor observes served traffic for online adaptation
// (internal/online implements it). The server calls Observe after
// every successfully served estimate — cache hits included — and
// ObserveLabeled when a client supplies ground truth through the
// /shadow endpoint; its return reports whether the label was actually
// accepted (a load-shedding monitor may drop it), and /shadow echoes
// that as "recorded". producer is the estimator snapshot that computed
// the prediction (the server always observes from the site that holds
// the snapshot), so a monitor scoring prediction quality can tell a
// still-current model's estimate from one produced by an already
// swapped-out model. Both methods must be cheap and non-blocking: they
// run on the request path. DriftStats is marshaled into the /stats
// "drift" block.
type Monitor interface {
	Observe(env *qcfe.Environment, sql string, predictedMs float64, producer any)
	ObserveLabeled(env *qcfe.Environment, sql string, predictedMs, actualMs float64, producer any) bool
	DriftStats() any
}

// Options configures the serving behavior.
type Options struct {
	// AdminToken, when non-empty, enables the remote-administration
	// endpoints (/swap, /generation) and is the shared secret every
	// admin request must present in the X-QCFE-Admin-Token header.
	// Empty keeps the admin surface disabled (requests get 403) — the
	// safe default for a replica not managed by a router.
	AdminToken string
	// Advertise is the identity this replica reports in /healthz
	// (typically its externally reachable address). Purely
	// informational: the router logs and stats use it to name replicas.
	Advertise string
	// SlowQueryThreshold, when positive, makes the server log every HTTP
	// request slower than this as one structured JSON line on stderr
	// (trace ID, per-stage spans, total duration). Zero disables the
	// slow-query log; /trace/recent retains recent traces either way.
	SlowQueryThreshold time.Duration
}

// ErrPricingPanic fails a request whose pricing panicked. The panic
// costs that request only: the server keeps serving. It wraps
// httpx.ErrInternal, so HTTP answers 500.
var ErrPricingPanic = fmt.Errorf("serve: panic while pricing: %w", httpx.ErrInternal)

// Stats is a snapshot of the server's counters.
type Stats struct {
	// Requests counts single-query estimate requests.
	Requests int64 `json:"requests"`
	// BatchRequests counts queries that arrived through explicit batch
	// requests.
	BatchRequests int64 `json:"batch_requests"`
	// Flushes counts priced single-query misses. ROADMAP 1(e) retires it
	// with the benchmark harness's last reader.
	Flushes int64 `json:"flushes"`
	// Coalesced is always 0: no request shares its pricing with another.
	// ROADMAP 1(e) retires it.
	Coalesced int64 `json:"coalesced"`
	// CacheHits counts single-query requests served straight from the
	// query cache's prediction tier — they are never priced.
	CacheHits int64 `json:"cache_hits"`
	// Swaps counts estimator hot swaps installed via SwapEstimator.
	Swaps int64 `json:"swaps"`
	// Errors counts requests that returned an error.
	Errors int64 `json:"errors"`
	// MeanBatch is 1 once a miss is priced (each is priced alone), 0
	// before. ROADMAP 1(e) retires it.
	MeanBatch float64 `json:"mean_batch"`
}

// estBox wraps the current estimator behind one pointer so a hot swap
// is a single atomic store (atomic.Pointer cannot hold an interface
// directly).
type estBox struct{ est Estimator }

// Server is a concurrency-safe serving front end over one estimator.
// Construct with New and serve traffic through Estimate/EstimateBatch or
// the HTTP handler; it starts no goroutine, so there is nothing to run
// or stop. The estimator can be replaced at any time with
// SwapEstimator; every request works against the snapshot it loaded at
// its own start, so a swap is invisible to in-flight work.
type Server struct {
	cur     atomic.Pointer[estBox]
	opts    Options
	start   time.Time
	monitor Monitor // set during setup, read-only while serving

	// Admin-plane state for the two-phase remote swap (see admin.go).
	// adminMu serializes stage/commit/rollback/abort; staged is an
	// artifact loaded but not yet serving; prev is the estimator the
	// last commit replaced, retained so a canary-failed rollout can
	// roll this replica back without re-uploading the old artifact.
	adminMu sync.Mutex
	staged  Estimator
	prev    Estimator

	requests      atomic.Int64
	batchRequests atomic.Int64
	misses        atomic.Int64
	cacheHits     atomic.Int64
	swaps         atomic.Int64
	errors        atomic.Int64

	// Latency histograms (internal/obs): pre-allocated once, recorded
	// into with two atomic adds per observation — cheap enough to stay on
	// the zero-alloc warm path. The three cache-tier histograms are owned
	// here and attached to the estimator's query cache (when it has one)
	// so they survive hot swaps: SwapEstimator re-attaches the same
	// registers to the incoming estimator's cache.
	histWarm      *obs.Histogram // Estimate/EstimateCached warm prediction-tier hits
	histMiss      *obs.Histogram // Estimate misses, probe and pricing
	histCacheTpl  *obs.Histogram // qcache template-tier lookups
	histCacheFeat *obs.Histogram // qcache feature-tier lookups
	histCachePred *obs.Histogram // qcache prediction-tier lookups

	// tracer owns this server's /trace/recent ring and slow-query log.
	tracer *obs.Tracer
}

// New builds a server over a loaded estimator.
func New(est Estimator, opts Options) *Server {
	s := &Server{
		opts:          opts,
		start:         time.Now(),
		histWarm:      obs.NewHistogram(),
		histMiss:      obs.NewHistogram(),
		histCacheTpl:  obs.NewHistogram(),
		histCacheFeat: obs.NewHistogram(),
		histCachePred: obs.NewHistogram(),
		tracer:        obs.NewTracer(0, opts.SlowQueryThreshold, os.Stderr),
	}
	s.cur.Store(&estBox{est: est})
	s.attachCacheHists(est)
	return s
}

// attachCacheHists points the estimator's query-cache tiers at this
// server's lookup histograms. The estimator interface stays narrow —
// only estimators that actually expose a query cache (the concrete
// *qcfe.CostEstimator does) get tier timing; fakes without one simply
// record nothing.
func (s *Server) attachCacheHists(est Estimator) {
	if ce, ok := est.(interface{ Cache() *qcfe.QueryCache }); ok {
		if c := ce.Cache(); c != nil {
			c.SetLookupHistograms(s.histCacheTpl, s.histCacheFeat, s.histCachePred)
		}
	}
}

// Tracer exposes the server's trace sink so the HTTP layer (and the
// multi-tenant registry embedding per-tenant servers) can finish traces
// and serve /trace/recent from it.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Estimator returns the currently installed estimator. Request paths
// load it exactly once and use that snapshot throughout, so every
// reply is computed wholly by one model — the no-torn-reads half of
// the hot-swap contract.
func (s *Server) Estimator() Estimator { return s.cur.Load().est }

// SwapEstimator atomically installs next as the serving estimator:
// requests that already snapshotted the old estimator finish on it,
// requests arriving after the store see only next. There is no lock
// and no drain — the swap is one pointer store. Callers retraining
// with a query cache attached run qcfe.SwapEstimator(old, next) first,
// which moves the cache to next's generation so the swap is also
// cache-safe (stale entries become invisible in the same instant).
func (s *Server) SwapEstimator(next Estimator) {
	s.cur.Store(&estBox{est: next})
	s.swaps.Add(1)
	// The incoming estimator's cache records into the same histogram
	// registers, so tier latency series are continuous across swaps.
	s.attachCacheHists(next)
}

// SetMonitor attaches a drift monitor. Call during setup, before
// serving traffic — the field is read without synchronization by
// concurrent requests.
func (s *Server) SetMonitor(m Monitor) { s.monitor = m }

// Run only waits for ctx to end: a Server starts no goroutine.
//
// Deprecated: Run goes once the benchmark harness stops calling it
// (ROADMAP 1(e)).
func (s *Server) Run(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// EnvByID resolves an environment from the estimator's trained set.
func (s *Server) EnvByID(id int) (*qcfe.Environment, error) {
	envs := s.Estimator().Environments()
	for _, env := range envs {
		if env.ID == id {
			return env, nil
		}
	}
	return nil, fmt.Errorf("serve: unknown environment %d (artifact has %d environments)", id, len(envs))
}

// Estimate prices one query under the environment with the given ID.
// A warm prediction-tier hit is answered at once. A miss is priced by
// the estimator's EstimateSQL on the caller's own goroutine, so
// concurrent misses run side by side and are bounded only by their
// callers (net/http's connections; a tenant's admission slots). A
// caller whose ctx has already ended gets ctx.Err() and is not priced;
// once pricing starts it runs to the end. A panic while pricing fails
// only this request, with ErrPricingPanic. Predictions are
// bit-identical to the library's EstimateSQL.
func (s *Server) Estimate(ctx context.Context, envID int, sql string) (float64, error) {
	t0 := time.Now()
	env, err := s.EnvByID(envID)
	if err != nil {
		s.errors.Add(1)
		return 0, err
	}
	s.requests.Add(1)
	// tr is nil on untraced paths (benchmarks, in-process callers) and
	// every use below degrades to a no-op — the warm path stays at zero
	// allocations with histogram recording on.
	tr := obs.TraceFrom(ctx)
	est := s.Estimator()
	if ms, ok := est.CachedEstimate(env, sql); ok {
		s.cacheHits.Add(1)
		s.observe(est, env, sql, ms)
		s.histWarm.RecordSince(t0)
		tr.AddSpan("probe", "warm", t0)
		return ms, nil
	}
	tr.AddSpan("probe", "miss", t0)
	if err := ctx.Err(); err != nil {
		s.errors.Add(1)
		return 0, err
	}
	s.misses.Add(1)
	t1 := time.Now()
	ms, err := priced(func() (float64, error) { return est.EstimateSQL(env, sql) })
	s.histMiss.RecordSince(t0)
	tr.AddSpan("predict", "", t1)
	if err != nil {
		s.errors.Add(1)
		return 0, err
	}
	s.observe(est, env, sql, ms)
	return ms, nil
}

// priced runs one pricing call and turns a panic inside it into
// ErrPricingPanic, so the panic costs only the request that caused it:
// the caller gets an error (HTTP 500) instead of unwinding.
func priced[T any](price func() (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrPricingPanic, p)
		}
	}()
	return price()
}

// EstimateCached serves a query only when the attached cache's
// prediction tier already knows it: a warm hit returns the memoized
// prediction — counted and observed exactly like a warm hit through
// Estimate — without joining a batch; a miss returns ok=false having
// done no planning, inference, or batching. The
// multi-tenant admission layer (internal/tenant) uses it as the
// ladder's rung-2 path: prediction-tier hits are served at every load
// level, only misses compete for NN capacity.
func (s *Server) EstimateCached(envID int, sql string) (float64, bool, error) {
	t0 := time.Now()
	env, err := s.EnvByID(envID)
	if err != nil {
		s.errors.Add(1)
		return 0, false, err
	}
	est := s.Estimator()
	ms, ok := est.CachedEstimate(env, sql)
	if !ok {
		return 0, false, nil
	}
	s.requests.Add(1)
	s.cacheHits.Add(1)
	s.observe(est, env, sql, ms)
	s.histWarm.RecordSince(t0)
	return ms, true, nil
}

// observe feeds a served estimate to the drift monitor, when one is
// attached, naming the estimator snapshot that produced it.
func (s *Server) observe(est Estimator, env *qcfe.Environment, sql string, ms float64) {
	if s.monitor != nil {
		s.monitor.Observe(env, sql, ms, est)
	}
}

// EstimateBatch prices a client-assembled batch through the estimator's
// batched path under the caller's ctx. A panic while pricing fails the
// batch with ErrPricingPanic, as it fails a single request in Estimate.
func (s *Server) EstimateBatch(ctx context.Context, envID int, sqls []string) ([]float64, error) {
	env, err := s.EnvByID(envID)
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	s.batchRequests.Add(int64(len(sqls)))
	est := s.Estimator()
	ms, err := priced(func() ([]float64, error) { return est.EstimateSQLBatchCtx(ctx, env, sqls) })
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	for i := range sqls {
		s.observe(est, env, sqls[i], ms[i])
	}
	return ms, nil
}

// Stats snapshots the server counters. The counters are independent
// atomics, so a concurrent snapshot cannot be a single consistent cut —
// but it CAN preserve the invariants readers rely on. Every increment
// path bumps requests before cacheHits, so loading cacheHits (and
// misses, which trail requests the same way) BEFORE requests
// guarantees Requests ≥ CacheHits even under full load. /stats, /metrics, and the tenant registry all read
// through this one method, so every surface reports the same shape.
func (s *Server) Stats() Stats {
	st := Stats{
		CacheHits:     s.cacheHits.Load(),
		Flushes:       s.misses.Load(),
		BatchRequests: s.batchRequests.Load(),
		Swaps:         s.swaps.Load(),
		Errors:        s.errors.Load(),
		Requests:      s.requests.Load(),
	}
	st.setMeanBatch()
	return st
}

// Add folds o's counters into st and recomputes MeanBatch — the
// router's fleet block is its replicas' counters added up.
func (st *Stats) Add(o Stats) {
	st.Requests += o.Requests
	st.BatchRequests += o.BatchRequests
	st.Flushes += o.Flushes
	st.Coalesced += o.Coalesced
	st.CacheHits += o.CacheHits
	st.Swaps += o.Swaps
	st.Errors += o.Errors
	st.setMeanBatch()
}

// setMeanBatch derives MeanBatch: 1 once a miss is priced, 0 before.
func (st *Stats) setMeanBatch() {
	st.MeanBatch = 0
	if st.Flushes > 0 {
		st.MeanBatch = 1
	}
}

// Uptime reports how long the server object has existed.
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }
