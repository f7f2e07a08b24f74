// Package serve is the context-aware serving layer over a trained cost
// estimator: a long-lived Server object constructed once from a loaded
// artifact and queried concurrently, in the mold of a query engine built
// once from options with context.Context plumbed through every
// execution path.
//
// Its core mechanism is micro-batch coalescing: concurrent single-query
// Estimate calls enqueue into one channel, a batcher goroutine takes the
// first and drains whatever else is already queued — up to
// Options.MaxBatch, never waiting for more — groups them by environment,
// and prices each group through the estimator's batched inference path.
// The policy is work-conserving (group-commit style): an idle server
// prices a lone request at once, and batches form from the requests that
// arrived while the previous flush was pricing, which is exactly when
// batching pays. Batched inference is bit-identical to per-query
// inference, so coalescing changes latency shape, never results. This is
// what turns the estimator stack's batched kernels into serving
// throughput: N backlogged clients cost ~1 batched inference pass instead
// of N scalar ones.
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
	"repro/internal/obs"
)

// Estimator is the slice of the qcfe API the server needs.
// *qcfe.CostEstimator satisfies it; tests substitute fakes to probe
// coalescing behavior.
type Estimator interface {
	ModelName() string
	BenchmarkName() string
	Environments() []*qcfe.Environment
	EstimateSQL(env *qcfe.Environment, sql string) (float64, error)
	EstimateSQLBatchCtx(ctx context.Context, env *qcfe.Environment, sqls []string) ([]float64, error)
	// CachedEstimate returns the memoized prediction for an exact
	// (environment, SQL text) pair when an attached query cache can
	// answer without planning or inference; ok=false otherwise (no
	// cache, cold key, or stale generation). Estimate probes it before
	// enqueueing, so warm hits never pay the hop to the batcher.
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
	// MaxBatch is the largest coalesced micro-batch (default 64). The
	// batcher flushes what is already queued, up to this many requests;
	// it never waits for a batch to fill.
	MaxBatch int
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

// queueDepth bounds the pending-request queue. Enqueueing beyond it
// blocks the client: backpressure, not unbounded memory.
const queueDepth = 1024

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	return o
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	// Requests counts single-query estimate requests (the coalescing
	// path).
	Requests int64 `json:"requests"`
	// BatchRequests counts queries that arrived through explicit batch
	// requests (already batched by the client; not coalesced again).
	BatchRequests int64 `json:"batch_requests"`
	// Flushes counts coalesced micro-batches priced.
	Flushes int64 `json:"flushes"`
	// Coalesced counts single-query requests that shared their
	// micro-batch with at least one other request.
	Coalesced int64 `json:"coalesced"`
	// CacheHits counts single-query requests served straight from the
	// query cache's prediction tier — they skip the coalescing queue
	// (and the hop to the batcher) entirely.
	CacheHits int64 `json:"cache_hits"`
	// Swaps counts estimator hot swaps installed via SwapEstimator.
	Swaps int64 `json:"swaps"`
	// Errors counts requests that returned an error.
	Errors int64 `json:"errors"`
	// MeanBatch is (Requests-CacheHits)/Flushes — the average micro-batch
	// size the coalescer achieved over the requests that actually queued.
	MeanBatch float64 `json:"mean_batch"`
}

// result is one request's outcome.
type result struct {
	ms  float64
	err error
}

// request is one enqueued single-query estimate. Requests are pooled:
// Estimate takes one from reqPool, the batcher replies through the
// buffered channel, and the caller returns it after reading the reply.
// A request abandoned mid-flight (caller gave up on ctx after enqueue)
// is NOT returned to the pool — the batcher still owns it and will
// drop a reply into the buffered channel, so reuse would deliver that
// stale result to a future caller. Abandoned requests leak to the GC,
// which is exactly the pre-pool behavior.
type request struct {
	env   *qcfe.Environment
	sql   string
	reply chan result
	// enq stamps when the request entered the queue; the batcher records
	// the queue-wait histogram (and a queue_wait span on traced requests)
	// from it. tr is the request's trace, nil on untraced paths — every
	// obs.Trace method is a no-op on nil, so the pooled field costs
	// nothing when tracing is off.
	enq time.Time
	tr  *obs.Trace
}

var reqPool = sync.Pool{
	New: func() any { return &request{reply: make(chan result, 1)} },
}

// putRequest clears a request's references and returns it to the pool.
// Only the party that has consumed (or provably prevented) the reply
// may call it.
func putRequest(r *request) {
	r.env = nil
	r.sql = ""
	r.tr = nil
	reqPool.Put(r)
}

// estBox wraps the current estimator behind one pointer so a hot swap
// is a single atomic store (atomic.Pointer cannot hold an interface
// directly).
type estBox struct{ est Estimator }

// Server is a concurrency-safe serving front end over one estimator.
// Construct with New, start the batcher with Run, and serve traffic
// through Estimate/EstimateBatch or the HTTP handler. The estimator
// can be replaced at any time with SwapEstimator; every request works
// against the snapshot it loaded at its own start, so a swap is
// invisible to in-flight work.
type Server struct {
	cur     atomic.Pointer[estBox]
	opts    Options
	queue   chan *request
	start   time.Time
	monitor Monitor // set during setup, read-only while serving

	// done is closed when Run returns, after stopErr is set: from then
	// on nobody drains the queue, so Estimate fails fast on it instead
	// of waiting for a reply that cannot come.
	done    chan struct{}
	stopErr error

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
	flushes       atomic.Int64
	coalesced     atomic.Int64
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
	histQueueWait *obs.Histogram // enqueue → batcher pickup (coalescing wait)
	histFlush     *obs.Histogram // whole coalesced micro-batch flushes
	histCacheTpl  *obs.Histogram // qcache template-tier lookups
	histCacheFeat *obs.Histogram // qcache feature-tier lookups
	histCachePred *obs.Histogram // qcache prediction-tier lookups

	// tracer owns this server's /trace/recent ring and slow-query log.
	tracer *obs.Tracer
}

// New builds a server over a loaded estimator.
func New(est Estimator, opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:          o,
		queue:         make(chan *request, queueDepth),
		done:          make(chan struct{}),
		start:         time.Now(),
		histWarm:      obs.NewHistogram(),
		histQueueWait: obs.NewHistogram(),
		histFlush:     obs.NewHistogram(),
		histCacheTpl:  obs.NewHistogram(),
		histCacheFeat: obs.NewHistogram(),
		histCachePred: obs.NewHistogram(),
		tracer:        obs.NewTracer(0, o.SlowQueryThreshold, os.Stderr),
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

// Run drains the coalescing queue until ctx is cancelled, then fails any
// still-pending requests with ctx's error and returns it. It is the
// server's batcher goroutine; call it exactly once, typically via
// `go srv.Run(ctx)`.
func (s *Server) Run(ctx context.Context) error {
	co := newCoalescer()
	// Shutdown takes priority over pending work: ctx is re-checked before
	// every receive, so once it is cancelled queued requests fail fast
	// instead of racing the Done case in the select.
	for ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case first := <-s.queue:
			s.gather(co, first)
			s.flush(ctx, co)
		}
	}
	s.stopErr = fmt.Errorf("serve: shutting down: %w", ctx.Err())
	s.drainFailed()
	close(s.done)
	return ctx.Err()
}

// coalescer owns the batcher loop's reusable scratch so a steady stream
// of micro-batches allocates nothing per batch: the gathered batch, the
// env-grouping map, group-order slice, and SQL scratch are cleared and
// reused. It is confined to the goroutine running Run.
type coalescer struct {
	batch  []*request
	groups map[int][]*request
	order  []int
	sqls   []string
}

func newCoalescer() *coalescer {
	return &coalescer{groups: make(map[int][]*request)}
}

// groupBatch splits a gathered batch by environment ID, preserving
// arrival order within each group; co.order lists the group keys in
// first-arrival order. The groups alias coalescer-owned scratch — they
// are valid until the next reset call.
func (co *coalescer) groupBatch() {
	co.order = co.order[:0]
	for _, r := range co.batch {
		id := r.env.ID
		g, ok := co.groups[id]
		if !ok || len(g) == 0 {
			co.order = append(co.order, id)
		}
		co.groups[id] = append(g, r)
	}
}

// reset empties the batch and grouping scratch, dropping request
// references so pooled requests aren't retained past their reply.
func (co *coalescer) reset() {
	clear(co.batch)
	co.batch = co.batch[:0]
	for _, id := range co.order {
		g := co.groups[id]
		clear(g)
		co.groups[id] = g[:0]
	}
	co.order = co.order[:0]
}

// gather collects one micro-batch into co.batch: the first request plus
// whatever is already queued behind it, capped at MaxBatch. It never
// blocks, so an idle server flushes a lone request at once and batches
// form only from the backlog that built up while the previous flush was
// pricing.
func (s *Server) gather(co *coalescer, first *request) {
	co.batch = append(co.batch, first)
	for len(co.batch) < s.opts.MaxBatch {
		select {
		case r := <-s.queue:
			co.batch = append(co.batch, r)
		default:
			return
		}
	}
}

// flush prices the gathered micro-batch: requests are grouped by
// environment (preserving arrival order within each group) and each
// group runs through the estimator's batched path. A group whose batch
// call fails — one malformed query fails a whole library batch — falls
// back to per-request estimation so errors stay isolated to the requests
// that caused them.
func (s *Server) flush(ctx context.Context, co *coalescer) {
	batch := co.batch
	defer co.reset()
	// One estimator snapshot per flush: every reply in this micro-batch
	// is computed wholly by one model, even if a hot swap lands mid-way.
	est := s.Estimator()
	s.flushes.Add(1)
	flushStart := time.Now()
	defer s.histFlush.RecordSince(flushStart)
	if len(batch) > 1 {
		s.coalesced.Add(int64(len(batch)))
	}
	// Queue wait ends here for every request in the batch. Spans must be
	// recorded before a request's reply is sent: the HTTP edge finishes
	// the trace the moment the reply arrives.
	for _, r := range batch {
		s.histQueueWait.RecordSince(r.enq)
		r.tr.AddSpan("queue_wait", "", r.enq)
	}
	co.groupBatch()
	for _, id := range co.order {
		group := co.groups[id]
		sqls := co.sqls[:0]
		for _, r := range group {
			sqls = append(sqls, r.sql)
		}
		co.sqls = sqls // keep the grown capacity for the next group/flush
		groupStart := time.Now()
		ms, err := est.EstimateSQLBatchCtx(ctx, group[0].env, sqls)
		if err == nil {
			// The whole group shares one batched inference call; each
			// trace gets it as its predict span (the finer featurize/
			// predict split shows up on traced /estimate_batch calls,
			// which carry their context into the library). The note is
			// formatted once per group, and only when someone will read it.
			note := ""
			for i, r := range group {
				s.observe(est, r.env, r.sql, ms[i])
				if r.tr != nil {
					if note == "" {
						note = fmt.Sprintf("batch=%d", len(group))
					}
					r.tr.AddSpan("predict", note, groupStart)
				}
				r.reply <- result{ms: ms[i]}
			}
			continue
		}
		// Cancellation is shutdown, not a query failure: fail the group
		// fast instead of re-pricing it serially without a context.
		if cerr := ctx.Err(); cerr != nil {
			for _, r := range group {
				s.errors.Add(1)
				r.reply <- result{err: fmt.Errorf("serve: shutting down: %w", cerr)}
			}
			continue
		}
		// Isolate the failure: price each request alone.
		for _, r := range group {
			soloStart := time.Now()
			v, rerr := est.EstimateSQL(r.env, r.sql)
			if rerr != nil {
				s.errors.Add(1)
			} else {
				s.observe(est, r.env, r.sql, v)
			}
			r.tr.AddSpan("predict", "solo-fallback", soloStart)
			r.reply <- result{ms: v, err: rerr}
		}
	}
}

// drainFailed fails every request still queued at shutdown.
func (s *Server) drainFailed() {
	for {
		select {
		case r := <-s.queue:
			s.errors.Add(1)
			r.reply <- result{err: s.stopErr}
		default:
			return
		}
	}
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

// Estimate prices one query under the environment with the given ID,
// coalescing with concurrent callers into a micro-batch. It blocks until
// the batcher replies, ctx is cancelled, or Run has returned; predictions
// are bit-identical to the library's EstimateSQL.
func (s *Server) Estimate(ctx context.Context, envID int, sql string) (float64, error) {
	t0 := time.Now()
	env, err := s.EnvByID(envID)
	if err != nil {
		s.errors.Add(1)
		return 0, err
	}
	s.requests.Add(1)
	// A warm prediction-tier hit is deterministic and already known:
	// answer straight away instead of paying the queue hop to the
	// batcher. Misses (and cacheless estimators) coalesce.
	// (Coalesced requests are observed inside flush, which holds the
	// estimator snapshot that actually priced them.)
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
	r := reqPool.Get().(*request)
	r.env, r.sql = env, sql
	r.enq, r.tr = time.Now(), tr
	select {
	case s.queue <- r:
	case <-ctx.Done():
		// Never enqueued: nobody else holds r, safe to recycle.
		putRequest(r)
		s.errors.Add(1)
		return 0, ctx.Err()
	case <-s.done:
		putRequest(r)
		s.errors.Add(1)
		return 0, s.stopErr
	}
	select {
	case res := <-r.reply:
		putRequest(r)
		return res.ms, res.err
	case <-ctx.Done():
		// The batcher will still price the request and drop the reply
		// into the buffered channel; the caller just stopped waiting.
		// r stays out of the pool (see the request type comment).
		s.errors.Add(1)
		return 0, ctx.Err()
	case <-s.done:
		// Run replies before it closes done, so a reply that exists is
		// already in the buffer; take it rather than count the request
		// twice. With none, r was enqueued after the final drain and
		// stays in the dead queue — out of the pool, like an abandoned
		// request.
		select {
		case res := <-r.reply:
			putRequest(r)
			return res.ms, res.err
		default:
		}
		s.errors.Add(1)
		return 0, s.stopErr
	}
}

// EstimateCached serves a query only when the attached cache's
// prediction tier already knows it: a warm hit returns the memoized
// prediction — counted and observed exactly like a warm hit through
// Estimate — without touching the coalescing queue; a miss returns
// ok=false having done no planning, inference, or queueing. The
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

// EstimateBatch prices a client-assembled batch directly through the
// estimator's batched path (no re-coalescing).
func (s *Server) EstimateBatch(ctx context.Context, envID int, sqls []string) ([]float64, error) {
	env, err := s.EnvByID(envID)
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	s.batchRequests.Add(int64(len(sqls)))
	est := s.Estimator()
	ms, err := est.EstimateSQLBatchCtx(ctx, env, sqls)
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
// flushes/coalesced, which trail requests the same way) BEFORE requests
// guarantees Requests ≥ CacheHits and a non-negative MeanBatch even
// under full load. /stats, /metrics, and the tenant registry all read
// through this one method, so every surface reports the same shape.
func (s *Server) Stats() Stats {
	st := Stats{
		CacheHits:     s.cacheHits.Load(),
		Flushes:       s.flushes.Load(),
		Coalesced:     s.coalesced.Load(),
		BatchRequests: s.batchRequests.Load(),
		Swaps:         s.swaps.Load(),
		Errors:        s.errors.Load(),
		Requests:      s.requests.Load(),
	}
	st.setMeanBatch()
	return st
}

// Add folds o's counters into st and recomputes MeanBatch from the
// sums — the router's fleet block is its replicas' counters added up.
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

// setMeanBatch derives MeanBatch from the counters; zero before the
// first flush.
func (st *Stats) setMeanBatch() {
	st.MeanBatch = 0
	if st.Flushes > 0 {
		st.MeanBatch = float64(st.Requests-st.CacheHits) / float64(st.Flushes)
	}
}

// Uptime reports how long the server object has existed.
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }
