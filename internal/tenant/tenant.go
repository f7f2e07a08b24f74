// Package tenant is the multi-tenant serving layer: one process hosts
// many named CostEstimator artifacts, each with its own serve.Server,
// its own query cache instance, and (optionally) its own
// online-adaptation drift monitor, behind a weighted fair-share
// admission controller with a three-rung degradation ladder.
//
// The rungs, in order of what a request gets under increasing load:
//
//  1. Full NN path — admitted to the tenant's server and priced by the
//     serving model on the request's own goroutine. Answers are bitwise
//     identical to single-tenant serving of the same artifact.
//  2. Warm-cache-only — prediction-tier hits are served at every load
//     level (they bypass admission entirely; a memoized float64 needs
//     no capacity), still full-fidelity. Misses degrade.
//  3. Analytic fallback — the training-free PGSQL baseline prices the
//     query in microseconds; the reply is flagged "degraded":true.
//     Rung-3 answers are bitwise identical to the library analytic
//     estimator over the same benchmark (qcfe.AnalyticEstimator).
//
// Past rung 3 the request is shed: ErrShed, HTTP 429 + Retry-After.
// The bitwise-equivalence boundary is exactly the "degraded" flag: an
// un-flagged answer is the serving model's, bit for bit; a flagged one
// is the analytic baseline's, bit for bit. Nothing in between exists.
//
// Isolation is layered: each tenant has its own estimator (its own
// generation), its own qcache.QueryCache instance — so entries can never
// be read or evicted across tenants; New rejects two tenants that name
// one estimator, the only way two could come to share a cache — its own
// serve.Server (counters, histograms, traces), its own admission floor,
// and its own drift monitor. The only shared resources are the slot
// budgets, and those are what admission meters.
package tenant

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	qcfe "repro"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Options configures a Registry.
type Options struct {
	// Serve configures every per-tenant server (AdminToken, Advertise,
	// tracing).
	Serve serve.Options
	// MaxInflight is the NN-path slot budget shared by all tenants
	// (divided into weighted floors). 0 means 4×GOMAXPROCS; values
	// below the tenant count are raised to it so every floor is ≥ 1.
	// The rung-3 analytic budget is 8×MaxInflight: that path is orders
	// of magnitude cheaper than the NN path, so its pool is much deeper.
	MaxInflight int
	// Cache sizes each tenant's query cache; every tenant gets its own
	// instance. Nil disables caching — rung 2 then never hits and
	// overload goes straight to rung 3.
	Cache *qcfe.CacheOptions
}

const (
	// queueDepth bounds each tenant's admission wait queue (requests
	// parked for an NN slot; beyond it the ladder degrades).
	queueDepth = 64
	// retryAfter is the Retry-After value, in seconds, of a shed reply.
	retryAfter = "1"
)

// Config declares one tenant: a name, a loaded artifact, and a
// fair-share weight (≤0 means 1).
type Config struct {
	Name   string
	Est    *qcfe.CostEstimator
	Weight int
}

// Tenant is one hosted tenant's serving state.
type Tenant struct {
	name     string
	weight   int
	srv      *serve.Server
	analytic *qcfe.CostEstimator // rung-3 fallback, same benchmark + envs
	bkt      *bucket

	admitted atomic.Int64 // rung-1 admissions (full NN path)
	warm     atomic.Int64 // rung-2 serves (prediction-tier hits)
	degraded atomic.Int64 // rung-3 serves (analytic fallback)
	shed     atomic.Int64 // requests past every rung

	// Per-tenant latency histograms: how long requests waited for an NN
	// slot, and end-to-end serve latency split by the ladder rung that
	// answered. /metrics renders them labeled tenant=... (+ rung=...).
	histAdmit    *obs.Histogram // admission wait (slot acquire, rungs 1/3 decision)
	histRungNN   *obs.Histogram // rung-1 end-to-end (full NN path)
	histRungWarm *obs.Histogram // rung-2 end-to-end (prediction-tier hit)
	histRungAna  *obs.Histogram // rung-3 end-to-end (analytic fallback)
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Server returns the tenant's serve.Server — the hook for wiring
// a drift monitor (SetMonitor) and for swapping adapted estimators.
func (t *Tenant) Server() *serve.Server { return t.srv }

// Registry hosts the tenants. Construction is the only mutation; the
// serving surface is concurrency-safe.
type Registry struct {
	opts    Options
	adm     *admission
	tenants map[string]*Tenant
	names   []string // sorted, for deterministic iteration
	start   time.Time
	tracer  *obs.Tracer // registry-edge trace ring + slow-query log
}

// New builds a registry over the given tenants. Each tenant gets its
// own query cache (when opts.Cache is set), its own serve.Server, and an
// analytic fallback estimator over the same benchmark and environment
// set as its artifact. Two tenants may not share one estimator: the
// second's cache would replace the first's, and both would serve from it.
func New(opts Options, tenants []Config) (*Registry, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("tenant: registry needs at least one tenant")
	}
	o := opts
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	o.MaxInflight = max(o.MaxInflight, len(tenants))
	r := &Registry{
		opts:    o,
		tenants: make(map[string]*Tenant, len(tenants)),
		start:   time.Now(),
		tracer:  obs.NewTracer(o.Serve.SlowQueryThreshold, os.Stderr),
	}
	weights := make([]int, len(tenants))
	owner := make(map[*qcfe.CostEstimator]string, len(tenants))
	for i, tc := range tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("tenant: tenant %d has no name", i)
		}
		if tc.Est == nil {
			return nil, fmt.Errorf("tenant %q: no estimator", tc.Name)
		}
		if _, dup := r.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("tenant %q: declared twice", tc.Name)
		}
		if other, shared := owner[tc.Est]; shared {
			return nil, fmt.Errorf("tenant %q: shares its estimator with tenant %q (load one per tenant)", tc.Name, other)
		}
		owner[tc.Est] = tc.Name
		weights[i] = max(tc.Weight, 1)
		if o.Cache != nil {
			tc.Est.AttachCache(qcfe.NewQueryCache(*o.Cache))
		}
		t := &Tenant{
			name:         tc.Name,
			weight:       weights[i],
			srv:          serve.New(tc.Est, o.Serve),
			analytic:     qcfe.AnalyticEstimator(tc.Est.Benchmark(), tc.Est.Environments()),
			histAdmit:    obs.NewHistogram(),
			histRungNN:   obs.NewHistogram(),
			histRungWarm: obs.NewHistogram(),
			histRungAna:  obs.NewHistogram(),
		}
		r.tenants[tc.Name] = t
		r.names = append(r.names, tc.Name)
	}
	r.adm = newAdmission(o.MaxInflight, 8*o.MaxInflight, queueDepth, weights)
	for i, tc := range tenants {
		r.tenants[tc.Name].bkt = r.adm.buckets[i]
	}
	sort.Strings(r.names)
	return r, nil
}

// Names returns the tenant names, sorted.
func (r *Registry) Names() []string { return r.names }

// Tenant resolves a tenant by name. An empty name resolves to the sole
// tenant when exactly one is hosted (single-tenant deployments keep
// working without headers); otherwise it is an error.
func (r *Registry) Tenant(name string) (*Tenant, error) {
	if name == "" {
		if len(r.names) == 1 {
			return r.tenants[r.names[0]], nil
		}
		return nil, fmt.Errorf("tenant: request names no tenant and registry hosts %d (set %s)", len(r.names), httpx.TenantHeader)
	}
	t, ok := r.tenants[name]
	if !ok {
		return nil, fmt.Errorf("tenant: unknown tenant %q", name)
	}
	return t, nil
}

// Run only waits for ctx to end: a Registry starts no goroutine.
//
// Deprecated: Run goes once the benchmark harness stops calling it
// (ROADMAP 1(e)).
func (r *Registry) Run(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// Uptime reports how long the registry object has existed.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// Estimate prices one query for a tenant, walking the degradation
// ladder: warm prediction-tier hit (always served, full fidelity) →
// admitted NN path → analytic fallback (degraded=true) → ErrShed.
func (r *Registry) Estimate(ctx context.Context, tenantName string, envID int, sql string) (ms float64, degraded bool, err error) {
	t, err := r.Tenant(tenantName)
	if err != nil {
		return 0, false, err
	}
	return r.estimate(ctx, t, envID, sql)
}

func (r *Registry) estimate(ctx context.Context, t *Tenant, envID int, sql string) (float64, bool, error) {
	t0 := time.Now()
	tr := obs.TraceFrom(ctx)
	// Rungs 1–2 share this probe: a memoized prediction is served at
	// every load level without consuming any admission capacity.
	if ms, ok, err := t.srv.EstimateCached(envID, sql); err != nil {
		return 0, false, err
	} else if ok {
		t.warm.Add(1)
		t.histRungWarm.RecordSince(t0)
		tr.AddSpan("probe", "warm", t0)
		return ms, false, nil
	}
	aStart := time.Now()
	ok, err := r.adm.acquire(ctx, t.bkt)
	t.histAdmit.RecordSince(aStart)
	if err != nil {
		return 0, false, err
	}
	if ok {
		tr.AddSpan("admit", "nn", aStart)
		defer r.adm.release(t.bkt)
		t.admitted.Add(1)
		ms, err := t.srv.Estimate(ctx, envID, sql)
		if err == nil {
			t.histRungNN.RecordSince(t0)
		}
		return ms, false, err
	}
	tr.AddSpan("admit", "degrade", aStart)
	ms, degraded, err := r.analytic(t, envID, sql)
	if err == nil {
		t.histRungAna.RecordSince(t0)
	}
	return ms, degraded, err
}

// EstimateBatch prices a client-assembled batch for a tenant. An
// admitted batch runs the normal batched path (one NN slot — a batch
// is one batched inference pass); past admission, warm elements keep
// their full-fidelity predictions and the rest are priced analytically
// with the whole reply flagged degraded.
func (r *Registry) EstimateBatch(ctx context.Context, tenantName string, envID int, sqls []string) (ms []float64, degraded bool, err error) {
	t, err := r.Tenant(tenantName)
	if err != nil {
		return nil, false, err
	}
	tr := obs.TraceFrom(ctx)
	aStart := time.Now()
	ok, err := r.adm.acquire(ctx, t.bkt)
	t.histAdmit.RecordSince(aStart)
	if err != nil {
		return nil, false, err
	}
	if ok {
		tr.AddSpan("admit", "nn", aStart)
		defer r.adm.release(t.bkt)
		t.admitted.Add(1)
		ms, err := t.srv.EstimateBatch(ctx, envID, sqls)
		if err == nil {
			t.histRungNN.RecordSince(aStart)
		}
		return ms, false, err
	}
	tr.AddSpan("admit", "degrade", aStart)
	// Overload: serve warm elements from the prediction tier, price the
	// rest analytically. One analytic slot covers the batch.
	env, err := t.srv.EnvByID(envID)
	if err != nil {
		return nil, false, err
	}
	est := t.srv.Estimator()
	res := make([]float64, len(sqls))
	miss := make([]int, 0, len(sqls))
	for i, sql := range sqls {
		if v, ok := est.CachedEstimate(env, sql); ok {
			res[i] = v
		} else {
			miss = append(miss, i)
		}
	}
	t.warm.Add(int64(len(sqls) - len(miss)))
	if len(miss) == 0 {
		return res, false, nil
	}
	if !r.adm.acquireAnalytic(t.bkt) {
		t.shed.Add(1)
		return nil, false, ErrShed
	}
	defer r.adm.releaseAnalytic(t.bkt)
	sub := make([]string, len(miss))
	for k, i := range miss {
		sub[k] = sqls[i]
	}
	av, err := t.analytic.EstimateSQLBatchCtx(ctx, env, sub)
	if err != nil {
		return nil, false, err
	}
	for k, i := range miss {
		res[i] = av[k]
	}
	t.degraded.Add(int64(len(miss)))
	return res, true, nil
}

// analytic is the rung-3 single-query path: price with the analytic
// fallback under its own slot pool, or shed.
func (r *Registry) analytic(t *Tenant, envID int, sql string) (float64, bool, error) {
	env, err := t.srv.EnvByID(envID)
	if err != nil {
		return 0, false, err
	}
	if !r.adm.acquireAnalytic(t.bkt) {
		t.shed.Add(1)
		return 0, false, ErrShed
	}
	defer r.adm.releaseAnalytic(t.bkt)
	ms, err := t.analytic.EstimateSQL(env, sql)
	if err != nil {
		return 0, false, err
	}
	t.degraded.Add(1)
	return ms, true, nil
}
