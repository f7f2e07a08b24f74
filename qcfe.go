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

// ErrStaleArtifact reports an artifact this build cannot use as written:
// its feature layout is not this build's, or — found when a loaded
// estimator's benchmark first generates its rows — those rows have other
// statistics than the artifact records.
var ErrStaleArtifact = core.ErrStaleArtifact

// Benchmark is one benchmark dataset (schema, statistics, and the rows
// they summarize) plus its workload templates.
type Benchmark struct {
	// meta is what plans are priced from: the schema and the statistics.
	// An opened benchmark's meta is its generated dataset; a loaded
	// estimator's carries the artifact's statistics and no rows.
	meta *datagen.Dataset
	seed int64

	rowsOnce  sync.Once
	rows      *datagen.Dataset
	rowsErr   error
	rowBuilds atomic.Int32 // row generations started; rowsOnce keeps it at most 1
}

// OpenBenchmark builds a benchmark dataset by name: "tpch", "imdb"
// (job-light), or "sysbench". Generation is deterministic per seed.
func OpenBenchmark(name string, seed int64) (*Benchmark, error) {
	ds, err := datagen.Build(name, seed)
	if err != nil {
		return nil, err
	}
	return &Benchmark{meta: ds, seed: seed}, nil
}

// Name returns the benchmark name.
func (b *Benchmark) Name() string { return b.meta.Name }

// Seed returns the deterministic generation seed the benchmark was opened
// with; artifacts record it so a loaded estimator can generate the
// identical rows when it first needs them.
func (b *Benchmark) Seed() int64 { return b.seed }

// data returns the benchmark's dataset with its rows. A benchmark loaded
// from an artifact generates them here, once, through datagen's
// process-wide memo, and checks their statistics against the artifact's:
// rows that disagree fail every later call with ErrStaleArtifact.
func (b *Benchmark) data() (*datagen.Dataset, error) {
	b.rowsOnce.Do(func() {
		if b.meta.DB != nil {
			b.rows = b.meta
			return
		}
		b.rowBuilds.Add(1)
		ds, err := datagen.Build(b.meta.Name, b.seed)
		if err == nil {
			err = core.CheckStats(ds, b.meta.Stats)
		}
		if err != nil {
			b.rowsErr = fmt.Errorf("qcfe: %s rows: %w", b.meta.Name, err)
			return
		}
		b.rows = ds
	})
	return b.rows, b.rowsErr
}

// Dataset exposes the underlying dataset, rows included, for advanced
// use. A loaded estimator's benchmark generates its rows on the first
// call; it panics with ErrStaleArtifact if they do not match the
// artifact's statistics.
func (b *Benchmark) Dataset() *datagen.Dataset {
	ds, err := b.data()
	if err != nil {
		panic(err)
	}
	return ds
}

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
// environment, tagging every node with the environment ID, and returns
// the parsed (and, after planning, resolved) query too, which the
// query-cache cold path stores as the template skeleton. Executing a
// query (Benchmark.Execute) and pricing one with or without a cache
// share this one front half, so the cache-on == cache-off bitwise
// contract cannot drift.
func planAnnotated(ds *datagen.Dataset, env *Environment, sql string) (*planner.Node, *sqlparse.Query, error) {
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
	node, _, err := planAnnotated(b.meta, env, sql)
	return node, err
}

// Execute plans and runs one SQL query under an environment.
func (b *Benchmark) Execute(env *Environment, sql string) (*QueryResult, error) {
	ds, err := b.data()
	if err != nil {
		return nil, err
	}
	node, _, err := planAnnotated(ds, env, sql)
	if err != nil {
		return nil, err
	}
	res, err := engine.New(ds.DB, env).Execute(node)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Plan: node, Ms: res.TotalMs, Rows: res.Len()}, nil
}

// AnalyticEstimateMs prices a plan with the PostgreSQL-style cost model
// (the paper's PGSQL baseline).
func (b *Benchmark) AnalyticEstimateMs(plan *planner.Node) float64 {
	return pgcost.New(b.meta.Stats).EstimateMs(plan)
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
	ds, err := b.data()
	if err != nil {
		return nil, err
	}
	lab, err := workload.Collect(ctx, ds, envs, perEnv, seed)
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
	ds, err := b.data()
	if err != nil {
		return nil, err
	}
	res, err := core.RunCtx(ctx, ds, envs, train, p.cfg)
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
// prediction tier, other spellings of the same query from the feature
// tier, and literal variants skip the parsing the template tier covers;
// results are bit-identical either way.
func (e *CostEstimator) EstimateSQL(env *Environment, sql string) (float64, error) {
	c := e.cache.Load()
	if c == nil {
		node, _, err := planAnnotated(e.bench.meta, env, sql)
		if err != nil {
			return 0, err
		}
		return e.EstimateMs(node), nil
	}
	g := e.cacheGeneration()
	p := pending{pkey: qcache.PredictionKey(env.ID, sql)}
	if ms, ok := c.GetPrediction(p.pkey, g); ok {
		return ms, nil
	}
	if err := e.front(c, g, env, sql, &p); err != nil {
		return 0, err
	}
	if p.node != nil {
		p.ms = e.EstimateMs(p.node)
		c.PutAnswer(p.fkey, g, p.ms)
	}
	c.PutPrediction(p.pkey, g, p.ms)
	return p.ms, nil
}

// pending is one prediction-tier miss. After front, ms is its answer
// when node is nil; otherwise node is the plan still to price.
type pending struct {
	i    int        // index into the batch
	pkey qcache.Key // prediction-tier key, reused by the write-back
	fkey qcache.Key // feature-tier key
	node *planner.Node
	ms   float64
	twin *pending // an earlier miss of the batch with the same fkey, priced in this one's stead
}

// front runs the cache-aware front half for one miss: probe the feature
// tier (fingerprint + literal signature) for the answer, then the
// template tier (bind fresh literals into a clone of the cached resolved
// skeleton and re-plan, recomputing every literal-dependent selectivity
// and operator choice), then fall back to the full parse→resolve→plan
// pipeline, storing the skeleton on the way out. Any hiccup on a cached
// path (literal mismatch, plan error) falls back to the full pipeline so
// errors and results are exactly the uncached ones. The caller passes
// its own (cache, generation) snapshot so one request stays internally
// consistent across a concurrent swap.
func (e *CostEstimator) front(c *qcache.QueryCache, g uint64, env *Environment, sql string, p *pending) error {
	fpr, lits, err := sqlparse.Fingerprint(sql)
	if err != nil {
		// Unlexable text: let the ordinary path produce the
		// authoritative error (or, conceivably, a plan), keyed by its
		// raw text: only an empty query has an empty fingerprint.
		p.fkey = qcache.FeatureKey(env.ID, "", sql)
		p.node, _, err = planAnnotated(e.bench.meta, env, sql)
		return err
	}
	p.fkey = qcache.FeatureKey(env.ID, fpr, sqlparse.Signature(lits))
	var ok bool
	if p.ms, ok = c.GetAnswer(p.fkey, g); ok {
		return nil
	}
	tkey := qcache.TemplateKey(env.ID, fpr)
	if skel, ok := c.GetTemplate(tkey, g); ok {
		p.node = e.planFromSkeleton(skel, lits, env)
	}
	if p.node == nil {
		var q *sqlparse.Query
		if p.node, q, err = planAnnotated(e.bench.meta, env, sql); err != nil {
			return err
		}
		// Freeze the now-resolved skeleton for future literal variants.
		// (Its literal values are the ones just planned; every hit
		// overwrites them via BindLiterals before planning.)
		c.PutTemplate(tkey, g, q.Clone())
	}
	return nil
}

// planFromSkeleton re-plans a cached resolved skeleton under a fresh
// literal vector. nil means "treat as a template miss": the caller
// re-runs the full pipeline, which reproduces any error exactly.
func (e *CostEstimator) planFromSkeleton(skel *sqlparse.Query, lits []sqlparse.Literal, env *Environment) *planner.Node {
	q := skel.Clone()
	if err := q.BindLiterals(lits); err != nil {
		return nil
	}
	node, err := planner.New(e.bench.meta.Schema, e.bench.meta.Stats, env.Knobs).PlanResolved(q)
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
// queries carried through the front half (probe + parse/plan) and ready
// for batched inference. It pins the cache and generation observed at
// featurize time, so a hot swap landing between the two halves cannot
// mix artifacts within one batch: PredictFeaturized writes back under
// the pinned generation and the swapped-in cache's bumped generation
// makes those writes invisible, exactly as with the fused
// EstimateSQLBatchCtx.
type FeaturizedBatch struct {
	sqls  []string
	cache *qcache.QueryCache // nil on the uncached path
	gen   uint64
	res   []float64       // answers at their original indexes (cached path)
	pend  []pending       // the prediction-tier misses
	nodes []*planner.Node // plans to price: one per query uncached, one per unanswered miss cached
	tr    *obs.Trace
}

// Warm reports how many of the batch's queries need no inference: cache
// hits and repeats of an earlier miss (always 0 without a cache).
func (fb *FeaturizedBatch) Warm() int { return len(fb.sqls) - fb.Misses() }

// Misses reports how many queries still need inference.
func (fb *FeaturizedBatch) Misses() int { return len(fb.nodes) }

// FeaturizeSQLBatchCtx runs the front half of EstimateSQLBatchCtx —
// prediction-tier probe, then the cache-aware parse/plan fan-out for the
// misses — and returns the batch ready for PredictFeaturized. The halves
// stay exported until ROADMAP 1(e) for the benchmark's depth-4 probe,
// which attributes miss time to planning versus inference.
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
			node, _, err := planAnnotated(e.bench.meta, env, sqls[i])
			return node, err
		})
		if err != nil {
			return nil, err
		}
		tr.AddSpan("featurize", "uncached", fstart)
		return &FeaturizedBatch{sqls: sqls, nodes: nodes, tr: tr}, nil
	}
	// Parity with the uncached fan-out, which surfaces cancellation even
	// when there is nothing to plan: an expired context errors here too,
	// regardless of cache temperature.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := e.cacheGeneration()
	fb := &FeaturizedBatch{sqls: sqls, cache: c, gen: g, tr: tr}
	fb.res = make([]float64, len(sqls))
	probeStart := time.Now()
	for i, sql := range sqls {
		k := qcache.PredictionKey(env.ID, sql)
		if ms, ok := c.GetPrediction(k, g); ok {
			fb.res[i] = ms
			continue
		}
		if fb.pend == nil { // at the first miss: an all-warm batch allocates nothing more
			fb.pend = make([]pending, 0, len(sqls)-i)
		}
		fb.pend = append(fb.pend, pending{i: i, pkey: k})
	}
	if tr != nil {
		tr.AddSpan("probe", fmt.Sprintf("%d/%d warm", len(sqls)-len(fb.pend), len(sqls)), probeStart)
	}
	if len(fb.pend) == 0 {
		return fb, nil
	}
	fstart := time.Now()
	if _, err := parallel.MapCtx(ctx, len(fb.pend), 0, func(k int) (struct{}, error) {
		return struct{}{}, e.front(c, g, env, sqls[fb.pend[k].i], &fb.pend[k])
	}); err != nil {
		return nil, err
	}
	// A miss that repeats an earlier one's feature key is priced once and
	// reads the answer back from the feature tier, as a later request would.
	first := make(map[qcache.Key]*pending, len(fb.pend))
	fb.nodes = make([]*planner.Node, 0, len(fb.pend))
	for k := range fb.pend {
		switch p := &fb.pend[k]; {
		case p.node == nil:
		case first[p.fkey] != nil:
			p.node, p.twin = nil, first[p.fkey]
		default:
			first[p.fkey] = p
			fb.nodes = append(fb.nodes, p.node)
		}
	}
	tr.AddSpan("featurize", "", fstart)
	return fb, nil
}

// PredictFeaturized runs the back half: batched inference over the
// planned misses, merged with the answers the front half found, and the
// write-back into the feature and prediction tiers under the batch's
// pinned generation. It is pure compute: no context, cannot fail.
//
// The batch must come from this estimator's FeaturizeSQLBatchCtx;
// results are then bit-identical to the fused EstimateSQLBatchCtx.
func (e *CostEstimator) PredictFeaturized(fb *FeaturizedBatch) []float64 {
	if fb.cache != nil && len(fb.pend) == 0 {
		return fb.res
	}
	pstart := time.Now()
	ms := e.res.Model.PredictBatch(fb.nodes)
	fb.tr.AddSpan("predict", "", pstart)
	if fb.cache == nil {
		return ms
	}
	mstart := time.Now()
	for k := range fb.pend {
		p := &fb.pend[k]
		switch {
		case p.node != nil:
			p.ms, ms = ms[0], ms[1:]
			fb.cache.PutAnswer(p.fkey, fb.gen, p.ms)
		case p.twin != nil:
			var ok bool
			if p.ms, ok = fb.cache.GetAnswer(p.fkey, fb.gen); !ok { // evicted since
				p.ms = p.twin.ms
			}
		}
		fb.res[p.i] = p.ms
		fb.cache.PutPrediction(p.pkey, fb.gen, p.ms)
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
// (for a loaded estimator, the artifact's schema and statistics; its rows
// are generated from the recorded name and seed only when something
// executes).
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
	return core.SaveArtifact(w, e.bench.meta, e.bench.seed, e.envs, e.cfg, e.res)
}

// LoadEstimator reads an artifact written by Save. It validates the
// magic, version, and checksum, takes the benchmark's schema from this
// build and its statistics from the artifact, and verifies the recorded
// fingerprint against this build's feature layout, so an artifact written
// against a different feature encoding fails loudly instead of predicting
// garbage. It generates no rows: pricing reads only the schema and the
// statistics. The first Execute, CollectWorkload, Fit or Transfer on the
// estimator or its Benchmark generates them from the recorded (name,
// seed) and fails with ErrStaleArtifact if their statistics are not the
// artifact's.
func LoadEstimator(r io.Reader) (*CostEstimator, error) {
	a, err := core.LoadArtifact(r)
	if err != nil {
		return nil, fmt.Errorf("qcfe: load estimator: %w", err)
	}
	return &CostEstimator{
		res:   a.Res,
		bench: &Benchmark{meta: a.DS, seed: a.BenchSeed},
		envs:  a.Envs,
		cfg:   a.Cfg,
	}, nil
}

// AnalyticEstimator builds the training-free PGSQL-baseline estimator
// over a benchmark's statistics, priced under envs — without running
// the training pipeline. Because the analytic model has no trainable
// state (core.Analytic's TrainCtx is a no-op) and reads only the dataset
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
		res:   &core.Result{Model: core.NewAnalytic(b.meta.Stats)},
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
// training minibatches). It is a core.Transfer onto the estimator's own
// features: the model's weights are cloned (a fresh optimizer, the
// sampler seeded as a loaded artifact's is) and trained on the window,
// while the featurizer — snapshots and reduction mask — stays as it is:
// the window is far too small to refit either. The adapted estimator
// shares only read-only state with the serving one (featurizer,
// benchmark, environments) and is itself Save-able:
// its artifact hash (the cache generation) reflects the new weights,
// which is what makes the swap invalidate the query cache without any
// locking. TrainSeconds stays cumulative. A cancelled adapt returns
// ctx's error and no estimator; the receiver is untouched either way.
func (e *CostEstimator) AdaptCtx(ctx context.Context, window []workload.Sample, iters int) (*CostEstimator, error) {
	if len(window) == 0 {
		return nil, fmt.Errorf("qcfe: Adapt requires a non-empty window of labeled samples")
	}
	if iters <= 0 {
		return nil, fmt.Errorf("qcfe: Adapt iterations must be positive (got %d)", iters)
	}
	res, err := core.Transfer(ctx, e.res, e.res.Features, window, iters)
	if err != nil {
		return nil, err
	}
	res.TrainTime += e.res.TrainTime
	return &CostEstimator{res: res, bench: e.bench, envs: e.envs, cfg: e.cfg}, nil
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
	ds, err := e.bench.data()
	if err != nil {
		return nil, err
	}
	ctx := context.TODO()
	ft, err := e.res.ForEnvCtx(ctx, ds, newEnv, e.cfg)
	if err != nil {
		return nil, err
	}
	res, err := core.Transfer(ctx, e.res, ft, train, retrainIters)
	if err != nil {
		return nil, err
	}
	return &CostEstimator{res: res, bench: e.bench, envs: []*Environment{newEnv}, cfg: e.cfg}, nil
}

// QError returns the paper's Equation 2 metric for one prediction.
func QError(actualMs, predictMs float64) float64 { return metrics.QError(actualMs, predictMs) }

// Benchmarks lists the supported benchmark names.
func Benchmarks() []string { return datagen.BenchmarkNames() }
