// Package qcfe is the public API of this repository: a reproduction of
// "QCFE: An Efficient Feature Engineering for Query Cost Estimation"
// (ICDE 2024) together with every substrate it needs — a SQL engine with
// planner, executor and environment simulator, two learned cost estimators
// (QPPNet, MSCN), a PostgreSQL-style analytic baseline, and the QCFE
// feature pipeline (feature snapshot + difference-propagation feature
// reduction).
//
// # Quickstart
//
//	bench, _ := qcfe.OpenBenchmark("sysbench", 1)
//	envs := qcfe.RandomEnvironments(4, 1)
//	pool, _ := bench.CollectWorkload(envs, 200, 1)
//	train, test := pool.Split(0.8)
//	est, _ := qcfe.NewPipeline("mscn").Fit(bench, envs, train)
//	fmt.Println(est.Evaluate(test).Mean) // mean q-error
//
// See examples/ for runnable programs and internal/experiments for the
// paper's full evaluation harness.
package qcfe

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/encoding"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pgcost"
	"repro/internal/planner"
	"repro/internal/qcache"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// SetWorkers sets the process-wide worker-pool size used by workload
// collection and snapshot labeling (0 restores the GOMAXPROCS default).
// Labeled pools are bit-identical at any worker count.
func SetWorkers(n int) { parallel.SetDefaultWorkers(n) }

// Environment is a database environment: knobs × hardware × storage
// format — the paper's "ignored variables".
type Environment = dbenv.Environment

// Summary bundles the evaluation metrics (mean/percentile q-error,
// Pearson correlation).
type Summary = metrics.Summary

// DefaultEnvironment returns the baseline environment.
func DefaultEnvironment() *Environment { return dbenv.Default() }

// RandomEnvironments samples n environments the way the paper samples its
// twenty random knob configurations.
func RandomEnvironments(n int, seed int64) []*Environment {
	return dbenv.SampleSet(n, seed)
}

// Benchmark is one loaded benchmark dataset (schema, data, statistics)
// plus its workload templates.
type Benchmark struct {
	ds   *datagen.Dataset
	seed int64
}

// OpenBenchmark builds a benchmark dataset by name: "tpch", "imdb"
// (job-light), or "sysbench". Generation is deterministic per seed.
func OpenBenchmark(name string, seed int64) (*Benchmark, error) {
	ds, err := datagen.Build(name, seed)
	if err != nil {
		return nil, err
	}
	return &Benchmark{ds: ds, seed: seed}, nil
}

// Name returns the benchmark name.
func (b *Benchmark) Name() string { return b.ds.Name }

// Seed returns the deterministic generation seed the benchmark was opened
// with; artifacts record it so a loader can rebuild the identical dataset.
func (b *Benchmark) Seed() int64 { return b.seed }

// Dataset exposes the underlying dataset for advanced use.
func (b *Benchmark) Dataset() *datagen.Dataset { return b.ds }

// QueryResult is one executed query.
type QueryResult struct {
	// Plan is the executed physical plan, annotated with per-node
	// estimates and actuals; Plan.Explain() renders it.
	Plan *planner.Node
	// Ms is the simulated execution latency.
	Ms float64
	// Rows is the number of result rows.
	Rows int
}

// planAnnotated parses and plans one SQL query against a dataset under an
// environment, tagging every node with the environment ID — the shared
// front half of executing a query (Benchmark.Execute) and pricing one
// without running it (CostEstimator.EstimateSQL).
func planAnnotated(ds *datagen.Dataset, env *Environment, sql string) (*planner.Node, error) {
	node, _, err := planParsed(ds, env, sql)
	return node, err
}

// planParsed is planAnnotated exposing the parsed (and, after planning,
// resolved) query alongside the plan — the query-cache cold path stores
// it as the template skeleton. Both paths share this one function so the
// cache-on == cache-off bitwise contract cannot drift.
func planParsed(ds *datagen.Dataset, env *Environment, sql string) (*planner.Node, *sqlparse.Query, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	node, err := planner.New(ds.Schema, ds.Stats, env.Knobs).Plan(q)
	if err != nil {
		return nil, nil, err
	}
	node.Walk(func(n *planner.Node) { n.EnvID = env.ID })
	return node, q, nil
}

// Plan parses and plans one SQL query under an environment without
// executing it, returning the annotated physical plan. The online
// adaptation loop uses it to turn a client-labeled query (latency
// observed elsewhere) into a training sample without paying an engine
// execution.
func (b *Benchmark) Plan(env *Environment, sql string) (*planner.Node, error) {
	return planAnnotated(b.ds, env, sql)
}

// Execute plans and runs one SQL query under an environment.
func (b *Benchmark) Execute(env *Environment, sql string) (*QueryResult, error) {
	node, err := planAnnotated(b.ds, env, sql)
	if err != nil {
		return nil, err
	}
	res, err := engine.New(b.ds.DB, env).Execute(node)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Plan: node, Ms: res.TotalMs, Rows: res.Len()}, nil
}

// AnalyticEstimateMs prices a plan with the PostgreSQL-style cost model
// (the paper's PGSQL baseline).
func (b *Benchmark) AnalyticEstimateMs(plan *planner.Node) float64 {
	return pgcost.New(b.ds.Stats).EstimateMs(plan)
}

// Workload is a labeled query pool collected across environments.
type Workload struct {
	lab *workload.Labeled
}

// CollectWorkload runs perEnv benchmark queries in every environment and
// labels them with simulated latency.
func (b *Benchmark) CollectWorkload(envs []*Environment, perEnv int, seed int64) (*Workload, error) {
	return b.CollectWorkloadCtx(context.Background(), envs, perEnv, seed)
}

// CollectWorkloadCtx is CollectWorkload with cooperative cancellation:
// the labeling fan-out stops claiming (environment, query) tasks once ctx
// is cancelled and the call returns ctx's error instead of a partial
// pool.
func (b *Benchmark) CollectWorkloadCtx(ctx context.Context, envs []*Environment, perEnv int, seed int64) (*Workload, error) {
	lab, err := workload.CollectCtx(ctx, b.ds, envs, perEnv, seed)
	if err != nil {
		return nil, err
	}
	return &Workload{lab: lab}, nil
}

// Len returns the pool size.
func (w *Workload) Len() int { return len(w.lab.Samples) }

// Split divides the pool into train/test sample slices.
func (w *Workload) Split(trainFrac float64) (train, test []workload.Sample) {
	return workload.Split(w.lab.Samples, trainFrac)
}

// Scale returns the first n samples (the paper's scale subsets).
func (w *Workload) Scale(n int) []workload.Sample { return w.lab.Scale(n) }

// Pipeline configures a QCFE training run.
type Pipeline struct {
	cfg core.Config
}

// Option customizes a pipeline.
type Option func(*core.Config)

// WithoutSnapshot disables the feature-snapshot block (general FE only).
func WithoutSnapshot() Option { return func(c *core.Config) { c.UseSnapshot = false } }

// WithSnapshotMode selects FSO ("fso": original queries) or FST ("fst":
// simplified templates) snapshot labeling.
func WithSnapshotMode(mode string) Option {
	return func(c *core.Config) { c.SnapshotMode = core.SnapshotMode(mode) }
}

// WithReduction selects the feature-reduction method: "fr", "gd",
// "greedy", or "none".
func WithReduction(method string) Option {
	return func(c *core.Config) { c.Reduction = core.ReductionMethod(method) }
}

// WithTrainIters sets the training iteration budget.
func WithTrainIters(n int) Option { return func(c *core.Config) { c.TrainIters = n } }

// WithTemplateScale sets Algorithm 1's template scale N.
func WithTemplateScale(n int) Option { return func(c *core.Config) { c.TemplateScale = n } }

// WithSeed fixes the random seed.
func WithSeed(seed int64) Option { return func(c *core.Config) { c.Seed = seed } }

// WithReferences sets the number of difference-propagation references |R|.
func WithReferences(n int) Option { return func(c *core.Config) { c.NumReferences = n } }

// NewPipeline builds a pipeline for the given estimator — "qppnet",
// "mscn", or "analytic" (the training-free PGSQL baseline) — with QCFE's
// default configuration (FST snapshot, FR reduction).
func NewPipeline(model string, opts ...Option) *Pipeline {
	cfg := core.DefaultConfig(model)
	for _, o := range opts {
		o(&cfg)
	}
	return &Pipeline{cfg: cfg}
}

// QueryCache is the sharded, generation-aware query-fingerprint cache
// (see internal/qcache): three tiers — template, feature, prediction —
// keyed off the normalized SQL fingerprint, invalidated atomically when
// a different estimator attaches.
type QueryCache = qcache.QueryCache

// CacheOptions sizes a QueryCache (shard count, per-tier capacity).
type CacheOptions = qcache.Options

// CacheStats is a QueryCache counter snapshot.
type CacheStats = qcache.Stats

// CacheTierStats is one tier's slice of a CacheStats snapshot.
type CacheTierStats = qcache.TierStats

// NewQueryCache builds an empty query cache. Attach it to an estimator
// with AttachCache; predictions served through it are bit-identical to
// the uncached paths.
func NewQueryCache(opts CacheOptions) *QueryCache { return qcache.New(opts) }

// CostEstimator is a trained model bound to its feature pipeline.
type CostEstimator struct {
	res   *core.Result
	bench *Benchmark
	envs  []*Environment
	cfg   core.Config

	// cache, when attached, accelerates the SQL estimate paths; nil means
	// every call runs the full front half. The pointer is atomic because
	// the hot-swap protocol (SwapEstimator) attaches a cache to an
	// estimator that may still be draining in-flight estimates; each
	// estimate path loads it once and uses that snapshot throughout.
	cache   atomic.Pointer[qcache.QueryCache]
	genOnce sync.Once
	gen     uint64
}

// Fit trains the pipeline on labeled samples collected over envs. An
// empty or nil train slice is an error — a model fitted on zero samples
// would silently predict from its initialization.
func (p *Pipeline) Fit(b *Benchmark, envs []*Environment, train []workload.Sample) (*CostEstimator, error) {
	return p.FitCtx(context.Background(), b, envs, train)
}

// FitCtx is Fit with cooperative cancellation: ctx is checked inside the
// snapshot-labeling worker pool and between training minibatches, so
// cancelling stops the run promptly. A cancelled fit returns ctx's error
// and no estimator — partially trained state never escapes.
func (p *Pipeline) FitCtx(ctx context.Context, b *Benchmark, envs []*Environment, train []workload.Sample) (*CostEstimator, error) {
	res, err := core.RunCtx(ctx, b.ds, envs, train, p.cfg)
	if err != nil {
		return nil, err
	}
	return &CostEstimator{res: res, bench: b, envs: envs, cfg: p.cfg}, nil
}

// EstimateMs predicts the execution time of a plan in milliseconds: the
// plan is priced as a batch of one.
func (e *CostEstimator) EstimateMs(plan *planner.Node) float64 {
	return e.res.Model.PredictBatch([]*planner.Node{plan})[0]
}

// EstimateBatch predicts the execution time of many plans in one
// vectorized inference pass — the serving path for pricing a workload.
// Element i is bit-identical to EstimateMs(plans[i]).
func (e *CostEstimator) EstimateBatch(plans []*planner.Node) []float64 {
	return e.res.Model.PredictBatch(plans)
}

// AttachCache binds a query cache to the estimator and moves the cache
// to this estimator's generation — an atomic swap that logically
// invalidates every entry another estimator left behind, so a stale
// prediction can never be served across a LoadEstimator or retrain.
// Every lookup and store this estimator makes is stamped with its own
// generation (not the cache's current one), so even an estimator that
// keeps serving in-flight traffic after the cache moved on can neither
// read nor pollute the new generation's entries. Because the generation
// is a hash of the full artifact (benchmark fingerprint, snapshot
// coefficients, mask, model weights), re-attaching a byte-identical
// estimator (Save→Load of the same model) keeps the cache warm.
//
// Environments are identified by their ID throughout the cache, matching
// how the featurizer selects per-environment snapshots; callers must not
// reuse one ID for two different environments (the trained set never
// does).
func (e *CostEstimator) AttachCache(c *qcache.QueryCache) {
	c.SetGeneration(e.cacheGeneration())
	e.cache.Store(c)
}

// Cache returns the attached query cache (nil when none).
func (e *CostEstimator) Cache() *qcache.QueryCache { return e.cache.Load() }

// CacheStats snapshots the attached cache's counters; ok is false when
// no cache is attached.
func (e *CostEstimator) CacheStats() (CacheStats, bool) {
	c := e.cache.Load()
	if c == nil {
		return CacheStats{}, false
	}
	return c.Stats(), true
}

// cacheGeneration derives the estimator's cache generation stamp by
// hashing its serialized artifact — everything predictions depend on.
// Computed once; deterministic across Save/Load round trips.
func (e *CostEstimator) cacheGeneration() uint64 {
	e.genOnce.Do(func() {
		h := fnv.New64a()
		if err := e.Save(h); err != nil {
			// Save only fails on an impossible (empty) estimator; fall
			// back to a constant so attaching still invalidates foreign
			// entries.
			h.Write([]byte(err.Error()))
		}
		e.gen = h.Sum64()
	})
	return e.gen
}

// Generation returns the estimator's artifact generation: the FNV-64a
// hash of its full serialized artifact, the same value that stamps
// query-cache entries. Two estimators share a generation exactly when
// their artifacts are byte-identical (a Save→Load round trip), so the
// fleet rollout protocol (internal/router) uses it as the identity of
// "which model is this replica serving" — a replica advertises it in
// /healthz and the router gates rollout steps on it.
func (e *CostEstimator) Generation() uint64 { return e.cacheGeneration() }

// CachedEstimate consults only the prediction tier: a warm hit returns
// the memoized prediction for the exact (environment, SQL text) pair
// without planning, featurizing, or inference; a miss returns ok=false
// without doing any work. The serving layer probes this before it
// prices a miss.
func (e *CostEstimator) CachedEstimate(env *Environment, sql string) (float64, bool) {
	c := e.cache.Load()
	if c == nil {
		return 0, false
	}
	return c.GetPrediction(qcache.PredictionKey(env.ID, sql), e.cacheGeneration())
}

// EstimateSQL plans a query under env and predicts its cost without
// executing it. With a cache attached, repeats are served from the
// prediction tier and template/literal variants skip the front-half
// stages their tiers cover; results are bit-identical either way.
func (e *CostEstimator) EstimateSQL(env *Environment, sql string) (float64, error) {
	c := e.cache.Load()
	if c == nil {
		node, err := planAnnotated(e.bench.ds, env, sql)
		if err != nil {
			return 0, err
		}
		return e.EstimateMs(node), nil
	}
	g := e.cacheGeneration()
	pkey := qcache.PredictionKey(env.ID, sql)
	if ms, ok := c.GetPrediction(pkey, g); ok {
		return ms, nil
	}
	fp, err := e.featurizedPlan(c, g, env, sql)
	if err != nil {
		return 0, err
	}
	ms := e.res.Model.PredictFeaturizedBatch([]*encoding.FeaturizedPlan{fp})[0]
	c.PutPrediction(pkey, g, ms)
	return ms, nil
}

// featurizedPlan runs the cache-aware front half for one query: probe
// the feature tier (fingerprint + literal signature), then the template
// tier (fingerprint; bind fresh literals into a clone of the cached
// resolved skeleton and re-plan, recomputing every literal-dependent
// selectivity and operator choice), then fall back to the full
// parse→resolve→plan→featurize pipeline, populating the tiers on the
// way out. Any hiccup on a cached path (literal mismatch, plan error)
// falls back to the full pipeline so errors and results are exactly the
// uncached ones. The caller passes its own (cache, generation)
// snapshot so one request stays internally consistent across a
// concurrent swap.
func (e *CostEstimator) featurizedPlan(c *qcache.QueryCache, g uint64, env *Environment, sql string) (*encoding.FeaturizedPlan, error) {
	fpr, lits, ferr := sqlparse.Fingerprint(sql)
	if ferr != nil {
		// Unlexable text: let the ordinary path produce the
		// authoritative error (or, conceivably, a result).
		node, err := planAnnotated(e.bench.ds, env, sql)
		if err != nil {
			return nil, err
		}
		return e.featurize(node), nil
	}
	fkey := qcache.FeatureKey(env.ID, fpr, sqlparse.Signature(lits))
	if fp, ok := c.GetFeatures(fkey, g); ok {
		return fp, nil
	}
	tkey := qcache.TemplateKey(env.ID, fpr)
	var node *planner.Node
	if skel, ok := c.GetTemplate(tkey, g); ok {
		node = e.planFromSkeleton(skel, lits, env)
	}
	if node == nil {
		var q *sqlparse.Query
		var err error
		node, q, err = planParsed(e.bench.ds, env, sql)
		if err != nil {
			return nil, err
		}
		// Freeze the now-resolved skeleton for future literal variants.
		// (Its literal values are the ones just planned; every hit
		// overwrites them via BindLiterals before planning.)
		c.PutTemplate(tkey, g, q.Clone())
	}
	fp := e.featurize(node)
	c.PutFeatures(fkey, g, fp)
	return fp, nil
}

// featurize builds the feature-tier value for one planned query. The
// analytic baseline prices the plan directly and never reads feature
// rows, so its entries carry only the plan (still worth caching: a
// feature-tier hit skips parse+resolve+plan); the learned models get
// the full per-node featurization.
func (e *CostEstimator) featurize(node *planner.Node) *encoding.FeaturizedPlan {
	if _, analytic := e.res.Model.(*core.Analytic); analytic {
		return &encoding.FeaturizedPlan{Root: node}
	}
	return e.res.F.Featurize(node)
}

// planFromSkeleton re-plans a cached resolved skeleton under a fresh
// literal vector. nil means "treat as a template miss": the caller
// re-runs the full pipeline, which reproduces any error exactly.
func (e *CostEstimator) planFromSkeleton(skel *sqlparse.Query, lits []sqlparse.Literal, env *Environment) *planner.Node {
	q := skel.Clone()
	if err := q.BindLiterals(lits); err != nil {
		return nil
	}
	node, err := planner.New(e.bench.ds.Schema, e.bench.ds.Stats, env.Knobs).PlanResolved(q)
	if err != nil {
		return nil
	}
	node.Walk(func(n *planner.Node) { n.EnvID = env.ID })
	return node
}

// EstimateSQLBatch plans every query under env on the worker pool and
// prices the batch in one vectorized inference pass. Results are in input
// order and bit-identical to calling EstimateSQL per query; the first
// query that fails to parse or plan fails the whole batch.
func (e *CostEstimator) EstimateSQLBatch(env *Environment, sqls []string) ([]float64, error) {
	return e.EstimateSQLBatchCtx(context.Background(), env, sqls)
}

// EstimateSQLBatchCtx is EstimateSQLBatch with cooperative cancellation:
// the planning fan-out stops claiming queries once ctx is cancelled and
// the call returns ctx's error. It is the serving path for batches —
// qcfe-serve routes /estimate_batch through it with the request context.
//
// With a cache attached, each query is first checked against the
// prediction tier; only the misses run the (cache-aware) front half and
// batched inference. Results are bit-identical to the uncached path, and
// so are errors: a query that fails to parse or plan is never cached, so
// the lowest-index failure wins exactly as in the plain fan-out.
//
// The call is exactly FeaturizeSQLBatchCtx followed by PredictFeaturized:
// the two halves are this function's real structure, exported so a
// caller that times or traces them separately gets, by construction,
// bit-identical results.
func (e *CostEstimator) EstimateSQLBatchCtx(ctx context.Context, env *Environment, sqls []string) ([]float64, error) {
	fb, err := e.FeaturizeSQLBatchCtx(ctx, env, sqls)
	if err != nil {
		return nil, err
	}
	return e.PredictFeaturized(fb), nil
}

// FeaturizedBatch is the output of FeaturizeSQLBatchCtx: a batch of
// queries carried through the front half (probe + parse/plan/featurize)
// and ready for batched inference. It pins the cache and generation
// observed at featurize time, so a hot swap landing between the two
// halves cannot mix artifacts within one batch: PredictFeaturized writes
// back under the pinned generation and the swapped-in cache's bumped
// generation makes those writes invisible, exactly as with the fused
// EstimateSQLBatchCtx.
type FeaturizedBatch struct {
	env   *Environment
	sqls  []string
	cache *qcache.QueryCache // nil on the uncached path
	gen   uint64
	res   []float64                  // warm values at their original indexes (cached path)
	miss  []int                      // indexes into sqls that missed the prediction tier
	keys  []qcache.Key               // prediction-tier probe key per miss, reused by the write-back
	nodes []*planner.Node            // uncached path: annotated plans, one per query
	fps   []*encoding.FeaturizedPlan // cached path: featurized plans, one per miss
	tr    *obs.Trace
}

// Warm reports how many of the batch's queries were answered from the
// prediction tier during the front half (always 0 without a cache).
func (fb *FeaturizedBatch) Warm() int { return len(fb.sqls) - fb.Misses() }

// Misses reports how many queries still need inference.
func (fb *FeaturizedBatch) Misses() int {
	if fb.cache == nil {
		return len(fb.nodes)
	}
	return len(fb.miss)
}

// FeaturizeSQLBatchCtx runs the front half of EstimateSQLBatchCtx —
// prediction-tier probe, then the cache-aware parse/plan/featurize
// fan-out for the misses — and returns the batch ready for
// PredictFeaturized. The benchmark's depth-4 probe calls the halves
// separately to attribute miss time to planning versus inference.
//
// A traced request (internal/obs) gets per-stage spans, featurize and
// predict. Untraced calls pay one context lookup and nothing else; span
// recording never changes results. The trace is captured into the batch
// so the back half records its spans even when invoked with a different
// context.
func (e *CostEstimator) FeaturizeSQLBatchCtx(ctx context.Context, env *Environment, sqls []string) (*FeaturizedBatch, error) {
	tr := obs.TraceFrom(ctx)
	c := e.cache.Load()
	if c == nil {
		fstart := time.Now()
		nodes, err := parallel.MapCtx(ctx, len(sqls), 0, func(i int) (*planner.Node, error) {
			return planAnnotated(e.bench.ds, env, sqls[i])
		})
		if err != nil {
			return nil, err
		}
		tr.AddSpan("featurize", "uncached", fstart)
		return &FeaturizedBatch{env: env, sqls: sqls, nodes: nodes, tr: tr}, nil
	}
	// Parity with the uncached fan-out, which surfaces cancellation even
	// when there is nothing to plan: an expired context errors here too,
	// regardless of cache temperature.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := e.cacheGeneration()
	fb := &FeaturizedBatch{env: env, sqls: sqls, cache: c, gen: g, tr: tr}
	fb.res = make([]float64, len(sqls))
	probeStart := time.Now()
	for i, sql := range sqls {
		k := qcache.PredictionKey(env.ID, sql)
		if ms, ok := c.GetPrediction(k, g); ok {
			fb.res[i] = ms
			continue
		}
		if fb.miss == nil { // at the first miss: an all-warm batch allocates neither
			fb.miss = make([]int, 0, len(sqls)-i)
			fb.keys = make([]qcache.Key, 0, len(sqls)-i)
		}
		fb.miss = append(fb.miss, i)
		fb.keys = append(fb.keys, k)
	}
	if tr != nil {
		tr.AddSpan("probe", fmt.Sprintf("%d/%d warm", len(sqls)-len(fb.miss), len(sqls)), probeStart)
	}
	if len(fb.miss) == 0 {
		return fb, nil
	}
	fstart := time.Now()
	fps, err := parallel.MapCtx(ctx, len(fb.miss), 0, func(k int) (*encoding.FeaturizedPlan, error) {
		return e.featurizedPlan(c, g, env, sqls[fb.miss[k]])
	})
	if err != nil {
		return nil, err
	}
	tr.AddSpan("featurize", "", fstart)
	fb.fps = fps
	return fb, nil
}

// PredictFeaturized runs the back half: batched inference over the
// featurized misses, merged with the warm probe results, and the
// write-back into the prediction tier under the batch's pinned
// generation. It is pure compute: no context, cannot fail.
//
// The batch must come from this estimator's FeaturizeSQLBatchCtx;
// results are then bit-identical to the fused EstimateSQLBatchCtx.
func (e *CostEstimator) PredictFeaturized(fb *FeaturizedBatch) []float64 {
	if fb.cache == nil {
		pstart := time.Now()
		ms := e.res.Model.PredictBatch(fb.nodes)
		fb.tr.AddSpan("predict", "", pstart)
		return ms
	}
	if len(fb.miss) == 0 {
		return fb.res
	}
	pstart := time.Now()
	ms := e.res.Model.PredictFeaturizedBatch(fb.fps)
	fb.tr.AddSpan("predict", "", pstart)
	mstart := time.Now()
	for k, i := range fb.miss {
		fb.res[i] = ms[k]
		fb.cache.PutPrediction(fb.keys[k], fb.gen, ms[k])
	}
	fb.tr.AddSpan("merge", "", mstart)
	return fb.res
}

// Evaluate computes q-error and correlation metrics on test samples.
func (e *CostEstimator) Evaluate(test []workload.Sample) Summary {
	return core.Evaluate(e.res.Model, test)
}

// TrainSeconds returns the wall-clock training time.
func (e *CostEstimator) TrainSeconds() float64 { return e.res.TrainTime.Seconds() }

// ModelName returns the downstream model identifier ("mscn", "qppnet",
// or "analytic").
func (e *CostEstimator) ModelName() string { return e.res.Model.Name() }

// BenchmarkName returns the name of the benchmark the estimator was
// trained on.
func (e *CostEstimator) BenchmarkName() string { return e.bench.Name() }

// Benchmark returns the benchmark the estimator prices queries against
// (for a loaded estimator, rebuilt deterministically from the artifact's
// recorded name and seed).
func (e *CostEstimator) Benchmark() *Benchmark { return e.bench }

// Environments returns the environment set the estimator was trained
// across — the environments it can price queries under. Callers must
// treat the slice and its elements as read-only.
func (e *CostEstimator) Environments() []*Environment { return e.envs }

// Save writes the estimator as one versioned binary artifact: magic
// header, format version, benchmark/seed fingerprint, pipeline config,
// environment set, featurizer state (per-environment feature snapshots
// and the reduction mask), and the model weights for every estimator
// type, with a checksum trailer. LoadEstimator on the written bytes
// reproduces EstimateBatch bit for bit — the train-once/serve-many flow
// behind cmd/qcfe-serve.
//
// Optimizer and sampler state are not persisted: a loaded estimator
// serves inference exactly, and further training starts from a fresh
// optimizer (like a newly constructed model), not a byte-level
// continuation of the original run.
func (e *CostEstimator) Save(w io.Writer) error {
	return core.SaveArtifact(w, e.bench.Name(), e.bench.Seed(), e.envs, e.cfg, e.res)
}

// LoadEstimator reads an artifact written by Save. It validates the
// magic, version, and checksum, rebuilds the benchmark dataset from the
// recorded (name, seed) — generation is deterministic — and verifies the
// recorded fingerprint against this build's feature layout, so stale
// artifacts (written against a different dataset generator or feature
// encoding) fail loudly instead of predicting garbage.
func LoadEstimator(r io.Reader) (*CostEstimator, error) {
	a, err := core.LoadArtifact(r)
	if err != nil {
		return nil, fmt.Errorf("qcfe: load estimator: %w", err)
	}
	return &CostEstimator{
		res:   a.Res,
		bench: &Benchmark{ds: a.DS, seed: a.BenchSeed},
		envs:  a.Envs,
		cfg:   a.Cfg,
	}, nil
}

// AnalyticEstimator builds the training-free PGSQL-baseline estimator
// over a benchmark's statistics, priced under envs — without running
// the training pipeline. Because the analytic model has no trainable
// state (core.Analytic's Train is a no-op) and reads only the dataset
// statistics, the returned estimator's predictions are bit-identical
// to a NewPipeline("analytic").Fit(...) estimator over the same
// benchmark: both plan through the shared planAnnotated front half and
// price with pgcost over the same deterministic statistics. The
// multi-tenant degradation ladder (internal/tenant) uses it as the
// rung-3 fallback, which is what makes "degraded answers equal the
// library analytic estimator" a bitwise invariant rather than an
// approximation.
//
// The estimator serves inference only: it has no featurizer, so Save
// reports an error rather than writing a partial artifact.
func AnalyticEstimator(b *Benchmark, envs []*Environment) *CostEstimator {
	return &CostEstimator{
		res:   &core.Result{Model: core.NewAnalytic(b.ds.Stats)},
		bench: b,
		envs:  envs,
		cfg:   core.DefaultConfig("analytic"),
	}
}

// Adapt incrementally retrains the estimator on a sliding window of
// recently labeled queries and returns the adapted estimator as a NEW
// object; the receiver is never mutated and keeps serving unchanged.
// This is the model half of the online-adaptation hot swap
// (internal/online): retrain a copy off to the side, then install it
// atomically with SwapEstimator + serve.Server.SwapEstimator.
func (e *CostEstimator) Adapt(window []workload.Sample, iters int) (*CostEstimator, error) {
	return e.AdaptCtx(context.Background(), window, iters)
}

// AdaptCtx is Adapt with cooperative cancellation (checked between
// training minibatches). The copy is made through the artifact codec —
// a Save→Load round trip — so the adapted estimator shares no mutable
// state with the serving one, training starts from exactly the served
// weights, and the adapted estimator is itself Save-able: its artifact
// hash (the cache generation) reflects the new weights, which is what
// makes the swap invalidate the query cache without any locking. A
// cancelled adapt returns ctx's error and no estimator; the receiver is
// untouched either way.
func (e *CostEstimator) AdaptCtx(ctx context.Context, window []workload.Sample, iters int) (*CostEstimator, error) {
	if len(window) == 0 {
		return nil, fmt.Errorf("qcfe: Adapt requires a non-empty window of labeled samples")
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		return nil, fmt.Errorf("qcfe: adapt: snapshot serving model: %w", err)
	}
	next, err := LoadEstimator(&buf)
	if err != nil {
		return nil, fmt.Errorf("qcfe: adapt: clone serving model: %w", err)
	}
	if err := core.RetrainCtx(ctx, next.res, window, iters); err != nil {
		return nil, err
	}
	return next, nil
}

// SwapEstimator performs the cache half of a hot swap: it hands old's
// attached query cache (if any) over to next — an AttachCache, which
// atomically moves the cache to next's generation so every entry the
// old estimator produced becomes logically invisible in one store —
// and returns next for chaining into the serving swap. When the two
// estimators are byte-identical (a Save→Load of the same artifact)
// their generations coincide and the cache stays warm across the swap;
// when next was retrained, the generation differs and the cache is
// cold for it, exactly as served predictions require. old may keep
// serving in-flight requests safely: its stamps can neither read nor
// pollute next's entries.
func SwapEstimator(old, next *CostEstimator) *CostEstimator {
	if old != nil {
		if c := old.cache.Load(); c != nil {
			next.AttachCache(c)
		}
	}
	return next
}

// ReductionRatio returns the fraction of features pruned (0 when
// reduction was disabled).
func (e *CostEstimator) ReductionRatio() float64 { return e.res.ReductionRatio() }

// SnapshotCollectionMs returns the simulated cost of labeling the feature
// snapshot.
func (e *CostEstimator) SnapshotCollectionMs() float64 { return e.res.SnapshotMs }

// Transfer adapts the estimator to a new environment (§V-E): refit only
// the feature snapshot there and retrain briefly on a small labeled set.
// The result prices and saves under the new snapshot and the receiver's
// mask.
func (e *CostEstimator) Transfer(newEnv *Environment, train []workload.Sample, retrainIters int) (*CostEstimator, error) {
	ft, err := e.res.ForEnvCtx(context.TODO(), e.bench.ds, newEnv, e.cfg)
	if err != nil {
		return nil, err
	}
	res, err := core.Transfer(e.res, ft, train, retrainIters)
	if err != nil {
		return nil, err
	}
	return &CostEstimator{res: res, bench: e.bench, envs: []*Environment{newEnv}, cfg: e.cfg}, nil
}

// QError returns the paper's Equation 2 metric for one prediction.
func QError(actualMs, predictMs float64) float64 { return metrics.QError(actualMs, predictMs) }

// Benchmarks lists the supported benchmark names.
func Benchmarks() []string { return datagen.BenchmarkNames() }
