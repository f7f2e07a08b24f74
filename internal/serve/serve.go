// Package serve is the context-aware serving layer over a trained cost
// estimator: a long-lived Server object constructed once from a loaded
// artifact and queried concurrently, in the mold of a query engine built
// once from options with context.Context plumbed through every
// execution path.
//
// Its core mechanism is micro-batch coalescing by group commit, done on
// the callers' own goroutines (Server.Estimate): a miss that finds the
// server idle prices itself at once, misses that arrive while it prices
// wait in a pending list, and when it is done the first of them prices
// up to MaxBatch of them as one batch, grouped by environment, through
// the estimator's batched inference path, and hands on in turn. Nothing
// waits for a batch to fill, and the server starts no goroutine.
// Batched inference is bit-identical to per-query inference, so
// coalescing changes latency shape, never results: N backlogged clients
// cost ~1 batched inference pass instead of N scalar ones.
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	qcfe "repro"
	"repro/internal/httpx"
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
	// cache, cold key, or stale generation). Estimate probes it first,
	// so warm hits never join a batch.
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

// MaxBatch is the largest coalesced micro-batch: a leader hands on at
// most this many pending requests as the next batch.
const MaxBatch = 64

// ErrPricingPanic fails every request of a batch whose pricing panicked.
// The panic costs that batch only: leadership passes on and the server
// keeps serving. It wraps httpx.ErrInternal, so HTTP answers 500.
var ErrPricingPanic = fmt.Errorf("serve: panic while pricing a batch: %w", httpx.ErrInternal)

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
	// query cache's prediction tier — they never join a batch.
	CacheHits int64 `json:"cache_hits"`
	// Swaps counts estimator hot swaps installed via SwapEstimator.
	Swaps int64 `json:"swaps"`
	// Errors counts requests that returned an error.
	Errors int64 `json:"errors"`
	// MeanBatch is (Requests-CacheHits)/Flushes — the average micro-batch
	// size the coalescer achieved over the requests that were priced.
	MeanBatch float64 `json:"mean_batch"`
}

// result is one request's outcome. lead marks the other message a
// reply channel carries: the request heads the batch just handed on,
// and its goroutine must price it.
type result struct {
	ms   float64
	err  error
	lead bool
}

// request is one single-query estimate on its way through a batch.
// Requests are pooled: Estimate takes one from reqPool and returns it
// after reading its reply. A request leaves the pool's reach only while
// some batch holds it, and every batch answers each of its requests
// exactly once, so a recycled request never sees a stale reply.
type request struct {
	env   *qcfe.Environment
	sql   string
	reply chan result
	// res stages the request's answer until its whole batch is priced.
	res result
	// enq stamps the request's arrival; flush records the queue-wait
	// histogram (and a queue_wait span on traced requests) from it. tr is
	// the request's trace, nil on untraced paths — every obs.Trace method
	// is a no-op on nil, so the pooled field costs nothing when tracing
	// is off.
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
	*r = request{reply: r.reply}
	reqPool.Put(r)
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

	// The combiner (see Estimate). mu guards busy (some caller leads a
	// batch) and pending (misses no batch holds yet, in arrival order).
	// co is the batch scratch: only the current leader touches it, and
	// leadership passes under mu and through a reply channel.
	mu      sync.Mutex
	busy    bool
	pending []*request
	co      *coalescer

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
	histQueueWait *obs.Histogram // arrival → its batch's pricing starts
	histFlush     *obs.Histogram // whole coalesced micro-batch flushes
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
		co:            &coalescer{groups: make(map[int][]*request)},
		start:         time.Now(),
		histWarm:      obs.NewHistogram(),
		histQueueWait: obs.NewHistogram(),
		histFlush:     obs.NewHistogram(),
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

// coalescer is the batch scratch the leaders take turns with, reused so
// a steady stream of micro-batches allocates nothing per batch: the
// batch, the env-grouping map, group-order slice, and SQL scratch are
// cleared and reused.
type coalescer struct {
	batch  []*request
	groups map[int][]*request
	order  []int
	sqls   []string
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

// handOn starts the next leader's turn: the first request of the next
// batch wakes up to lead it.
func (s *Server) handOn() {
	if next := s.takeBatch(); next != nil {
		next.reply <- result{lead: true}
	}
}

// takeBatch makes up to MaxBatch pending requests, in arrival order,
// the next batch and returns its first request, which is to lead it.
// With nothing pending it returns nil and the server is idle again.
func (s *Server) takeBatch() *request {
	co := s.co
	s.mu.Lock()
	defer s.mu.Unlock()
	co.reset()
	n := min(len(s.pending), MaxBatch)
	if n == 0 {
		s.busy = false
		return nil
	}
	co.batch = append(co.batch, s.pending[:n]...)
	rest := copy(s.pending, s.pending[n:])
	clear(s.pending[rest:])
	s.pending = s.pending[:rest]
	return co.batch[0]
}

// flush prices the batch in s.co: requests are grouped by environment
// (preserving arrival order within each group) and each group runs
// through the estimator's batched path. The batch is priced under
// context.Background(), so no caller can cancel it. A group whose batch
// call fails — one malformed query fails a whole library batch — falls
// back to per-request estimation so errors stay isolated to the requests
// that caused them; with no context to cancel, only a query error gets
// there. Answers are staged in the requests and sent once the whole
// batch is priced, so a panic on the way fails every request of the
// batch with ErrPricingPanic, and none is left without a reply.
func (s *Server) flush() {
	co := s.co
	batch := co.batch
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("%w: %v", ErrPricingPanic, p)
			for _, r := range batch {
				if r.res.err == nil {
					s.errors.Add(1)
				}
				r.res = result{err: err}
			}
		}
		for _, r := range batch {
			r.reply <- r.res
		}
	}()
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
		ms, err := est.EstimateSQLBatchCtx(context.Background(), group[0].env, sqls)
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
				r.res = result{ms: ms[i]}
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
			r.res = result{ms: v, err: rerr}
		}
	}
}

// unqueue takes r off the pending list; false means a batch already
// holds it.
func (s *Server) unqueue(r *request) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.Index(s.pending, r)
	if i < 0 {
		return false
	}
	s.pending = slices.Delete(s.pending, i, i+1)
	return true
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
// Misses coalesce into micro-batches by group commit on the callers'
// own goroutines. Every miss joins the pending list; one that finds the
// server idle hands the list on at once and so leads a batch of itself.
// The rest park on their reply channels until a leader, its batch
// answered, hands on up to MaxBatch of them, in arrival order; the
// first wakes, prices that batch and hands on in turn. With nothing
// pending the server is idle.
//
// A caller whose ctx ends while it is pending leaves the list and
// returns ctx.Err(). Once a batch holds it, it keeps its role — it
// leads the batch if it heads it — and returns its answer. Predictions
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
	// answer straight away, outside any batch. Misses (and cacheless
	// estimators) coalesce; they are observed inside flush, which holds
	// the estimator snapshot that actually priced them.
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
	s.mu.Lock()
	s.pending = append(s.pending, r)
	idle := !s.busy
	s.busy = true
	s.mu.Unlock()
	if idle {
		s.handOn()
	}
	done := ctx.Done()
	for {
		select {
		case res := <-r.reply:
			if res.lead {
				s.flush()
				s.handOn()
				continue
			}
			putRequest(r)
			return res.ms, res.err
		case <-done:
			if s.unqueue(r) {
				putRequest(r)
				s.errors.Add(1)
				return 0, ctx.Err()
			}
			done = nil // a batch holds r: it keeps its role
		}
	}
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
