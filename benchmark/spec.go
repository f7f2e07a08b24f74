package main

// This file is the benchmark's vocabulary: every workload and metric the
// harness may print. BENCHMARK.json at the repository root repeats the
// same names for the driver; a test keeps the two in step.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

// Workload names.
const (
	wlWarmRepeat  = "warm_repeat"
	wlLiteralMiss = "literal_miss"
	wlBatchMiss   = "batch_miss"
	wlZipfChurn   = "zipf_churn"
	wlRoutedMixed = "routed_mixed"
	wlFit         = "fit"
)

var workloads = []workloadSpec{
	{wlWarmRepeat, "POST /estimate drawn from 256 primed queries: every request is a prediction-tier hit, so HTTP framing and the qcache read do all the work and planner, encoding and model do none"},
	{wlLiteralMiss, "POST /estimate with globally unique literals over trained templates: template-tier hit, feature and prediction miss; the coalescer's 2 ms batch window dominates"},
	{wlBatchMiss, "POST /estimate_batch of 64 unique fresh-literal queries: coalescer bypassed, HTTP amortised 64x, so planner, encoding, batched mscn and qcache stores do the work"},
	{wlZipfChurn, "POST /estimate, Zipf(1.01) over 16384 queries against a 4096-entry prediction tier: hits, stores and CLOCK evictions at once, the reads-versus-writes trade in qcache"},
	{wlRoutedMixed, "qcfe-router in front of 2 replicas, batches of 16 primed plus 16 fresh queries: the only workload where route-hash memo, ring, scatter/merge and a second HTTP hop work"},
	{wlFit, "offline, no daemon: collect 3x120 labelled TPC-H queries, fit QCFE-default mscn and qppnet, evaluate on the held-out 20%, price it in process; training time and q-error"},
}

// metricSpec describes one metric. Bound is the share of the baseline
// median by which the metric may worsen before a change counts as a
// regression; only end-to-end metrics have one. On lists the workloads
// whose runs produce the metric; the JSON line of a traced run reads 0 for
// a per-layer metric its workload does not produce.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	On     []string
}

var (
	onServing = []string{wlWarmRepeat, wlLiteralMiss, wlBatchMiss, wlZipfChurn, wlRoutedMixed}
	onAll     = append(append([]string{}, onServing...), wlFit)
	onSingle  = []string{wlWarmRepeat, wlLiteralMiss, wlZipfChurn}
)

func on(names ...string) []string { return names }

// endToEnd lists what a caller of the system sees. The driver reads every
// one of them, never zero, from every workload, so each has a meaning on
// the offline fit workload too, and the serving workloads report the
// q-error of the artifact they boot; README.md tables both.
var endToEnd = []metricSpec{
	{"queries_per_s", "1/s", "higher", 0.25, onAll},         // priced queries per second, median of the window's five slices; on fit, pool queries over collect+fit+evaluate time
	{"lat_p50_us", "us", "lower", 0.25, onAll},              // client-observed request latency, median; on fit, EstimateSQL in process
	{"server_cpu_us_per_query", "us", "lower", 0.25, onAll}, // daemon utime+stime over the window per priced query; on fit, of the fitting process
	{"server_rss_mb", "MiB", "lower", 0.25, onAll},          // sum of the daemons' VmHWM; on fit, of the fitting process
	{"setup_s", "s", "lower", 0.25, onAll},                  // exec to /healthz to primed, median of five; on fit, OpenBenchmark. Builds and training excluded
	{"qerror_median", "ratio", "lower", 0.01, onAll},        // median q-error of QCFE-default mscn on the held-out 20%; measured on fit, recorded with the artifact for the rest
	{"qerror_p90", "ratio", "lower", 0.01, onAll},           // same, 90th percentile
}

// perLayer lists the single-layer metrics. *_ns are p50 per call from the
// traced run; ratios and counts are /stats deltas around the timed window.
var perLayer = []metricSpec{
	// serve, http.go
	{Name: "serve.http_roundtrip_warm_ns", Unit: "ns", Better: "lower", On: on(wlWarmRepeat)},    // depth 1: loopback socket to an in-process http.Server around Handler()
	{Name: "serve.http_handler_warm_ns", Unit: "ns", Better: "lower", On: on(wlWarmRepeat)},      // depth 2: Handler().ServeHTTP on a recorder
	{Name: "serve.http_self_ns", Unit: "ns", Better: "lower", On: on(wlWarmRepeat)},              // depth 2 minus depth 3: mux, JSON framing, trace bookkeeping
	{Name: "serve.http_socket_self_ns", Unit: "ns", Better: "lower", On: on(wlWarmRepeat)},       // depth 1 minus depth 2: net/http server and client, loopback TCP
	{Name: "serve.http_batch64_self_ns_per_q", Unit: "ns", Better: "lower", On: on(wlBatchMiss)}, // depth 2 minus depth 3 on a 64-batch, per query
	// serve, core
	{Name: "serve.estimate_warm_ns", Unit: "ns", Better: "lower", On: on(wlWarmRepeat)},         // depth 3: Server.Estimate on a prediction-tier hit
	{Name: "serve.estimate_miss_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},        // depth 3: Server.Estimate on a fresh literal, batch window included
	{Name: "serve.queue_wait_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},           // depth 3 minus depth 4 on a miss: the coalescer's wait
	{Name: "serve.estimate_batch64_ns_per_q", Unit: "ns", Better: "lower", On: on(wlBatchMiss)}, // depth 3: Server.EstimateBatch of 64, per query
	{Name: "serve.mean_batch", Unit: "count", Better: "higher", On: onServing},                  // queued single requests per coalesced flush
	{Name: "serve.flushes_per_kq", Unit: "count", Better: "lower", On: onServing},               // coalescer flushes per 1000 priced queries
	{Name: "serve.coalesced_ratio", Unit: "ratio", Better: "higher", On: onServing},             // single requests that shared a micro-batch
	{Name: "serve.errors", Unit: "count", Better: "lower", On: onServing},                       // requests the daemons counted as errors
	// qcfe, the root library
	{Name: "qcfe.estimate_sql_warm_ns", Unit: "ns", Better: "lower", On: on(wlWarmRepeat)},         // depth 4: CostEstimator.EstimateSQL on a hit
	{Name: "qcfe.estimate_sql_miss_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},        // depth 4: CostEstimator.EstimateSQL on a fresh literal
	{Name: "qcfe.featurize_batch64_ns_per_q", Unit: "ns", Better: "lower", On: on(wlBatchMiss)},    // depth 4: FeaturizeSQLBatchCtx of 64, per query
	{Name: "qcfe.predict_featurized64_ns_per_q", Unit: "ns", Better: "lower", On: on(wlBatchMiss)}, // depth 4: PredictFeaturized of 64, per query
	{Name: "qcfe.miss_unattributed_share", Unit: "ratio", Better: "lower", On: on(wlLiteralMiss)},  // share of depth 4 on a miss that the depth-5 leaves do not account for
	// sqlparse
	{Name: "sqlparse.fingerprint_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},   // leaf: Fingerprint
	{Name: "sqlparse.parse_resolve_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)}, // cold-path probe: Parse then Query.Resolve
	{Name: "sqlparse.bind_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},          // leaf: Query.Clone then BindLiterals
	{Name: "sqlparse.routing_hash_ns", Unit: "ns", Better: "lower", On: on(wlRoutedMixed)},  // leaf: RoutingHash
	// planner
	{Name: "planner.plan_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},           // cold-path probe: Planner.Plan on a parsed query
	{Name: "planner.plan_resolved_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},  // leaf: Planner.PlanResolved on a bound skeleton
	{Name: "planner.nodes_per_plan", Unit: "count", Better: "lower", On: on(wlLiteralMiss)}, // mean plan size of the workload's queries
	// encoding
	{Name: "encoding.featurize_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},             // leaf: Featurizer.Featurize
	{Name: "encoding.feature_dim_raw", Unit: "count", Better: "lower", On: on(wlBatchMiss, wlFit)},  // feature width before reduction
	{Name: "encoding.feature_dim_kept", Unit: "count", Better: "lower", On: on(wlBatchMiss, wlFit)}, // feature width the model reads
	// mscn, qppnet, nn, linalg
	{Name: "mscn.predict1_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},         // leaf: PredictFeaturizedBatch of 1
	{Name: "mscn.predict64_ns_per_plan", Unit: "ns", Better: "lower", On: on(wlBatchMiss)}, // leaf: PredictFeaturizedBatch of 64, per plan
	{Name: "qppnet.predict64_ns_per_plan", Unit: "ns", Better: "lower", On: on(wlFit)},     // PredictFeaturizedBatch of 64 held-out plans, per plan
	{Name: "mscn.train_iter_us", Unit: "us", Better: "lower", On: on(wlFit)},               // TrainCtx wall time per iteration
	{Name: "qppnet.train_iter_us", Unit: "us", Better: "lower", On: on(wlFit)},             // TrainCtx wall time per iteration
	{Name: "mscn.train_s", Unit: "s", Better: "lower", On: on(wlFit)},                      // TrainCtx span
	{Name: "qppnet.train_s", Unit: "s", Better: "lower", On: on(wlFit)},                    // TrainCtx span
	{Name: "linalg.calib_fma_ns", Unit: "ns", Better: "lower", On: onAll},                  // machine-speed proxy: one step of a dependent multiply-add chain
	// qcache
	{Name: "qcache.get_prediction_hit_ns", Unit: "ns", Better: "lower", On: on(wlWarmRepeat)},   // leaf: GetPrediction, hit
	{Name: "qcache.get_prediction_miss_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)}, // leaf: GetPrediction, miss
	{Name: "qcache.put_prediction_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},      // leaf: PutPrediction
	{Name: "qcache.get_features_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},        // leaf: GetFeatures, miss
	{Name: "qcache.put_features_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},        // leaf: PutFeatures
	{Name: "qcache.get_template_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)},        // leaf: GetTemplate, hit
	{Name: "qcache.prediction_hit_ratio", Unit: "ratio", Better: "higher", On: onServing},       // prediction-tier hits over lookups (a queued /estimate miss looks up twice)
	{Name: "qcache.feature_hit_ratio", Unit: "ratio", Better: "higher", On: onServing},          // feature-tier hits over lookups
	{Name: "qcache.template_hit_ratio", Unit: "ratio", Better: "higher", On: onServing},         // template-tier hits over lookups
	{Name: "qcache.prediction_evictions_per_kq", Unit: "count", Better: "lower", On: onServing}, // prediction-tier evictions per 1000 priced queries
	// router
	{Name: "router.estimate_batch32_ns_per_q", Unit: "ns", Better: "lower", On: on(wlRoutedMixed)}, // Router.EstimateBatch of 32 over 2 replicas, per query
	{Name: "router.self_ns_per_q", Unit: "ns", Better: "lower", On: on(wlRoutedMixed)},             // Router.EstimateBatch minus the same batch sent straight to one replica, per query
	{Name: "router.routehash_hit_ratio", Unit: "ratio", Better: "higher", On: on(wlRoutedMixed)},   // route-hash memo hits over lookups
	{Name: "router.fanouts_per_batch", Unit: "count", Better: "lower", On: on(wlRoutedMixed)},      // sub-batches dispatched per client batch
	{Name: "router.retries", Unit: "count", Better: "lower", On: on(wlRoutedMixed)},                // queries re-routed to a fallback replica
	{Name: "router.replica_max_share", Unit: "ratio", Better: "lower", On: on(wlRoutedMixed)},      // share of routed queries the busiest replica received
	// tenant
	{Name: "tenant.estimate_warm_ns", Unit: "ns", Better: "lower", On: on(wlWarmRepeat)},  // Registry.Estimate on a hit, two-tenant registry
	{Name: "tenant.self_warm_ns", Unit: "ns", Better: "lower", On: on(wlWarmRepeat)},      // tenant.estimate_warm_ns minus serve.estimate_warm_ns
	{Name: "tenant.estimate_miss_ns", Unit: "ns", Better: "lower", On: on(wlLiteralMiss)}, // Registry.Estimate on a fresh literal
	// obs
	{Name: "obs.histogram_record_ns", Unit: "ns", Better: "lower", On: on(wlWarmRepeat)}, // Histogram.Record
	{Name: "obs.metrics_render_us", Unit: "us", Better: "lower", On: on(wlWarmRepeat)},   // GET /metrics on a recorder
	// artifact, core
	{Name: "artifact.bytes", Unit: "B", Better: "lower", On: on(wlFit)},                      // size of the saved mscn artifact
	{Name: "artifact.load_ms", Unit: "ms", Better: "lower", On: on(wlFit)},                   // qcfe.LoadEstimator, dataset already built
	{Name: "artifact.save_ms", Unit: "ms", Better: "lower", On: on(wlFit)},                   // CostEstimator.Save
	{Name: "core.evaluate_us_per_sample", Unit: "us", Better: "lower", On: on(wlFit)},        // CostEstimator.Evaluate per held-out sample
	{Name: "core.qerror_median_qppnet", Unit: "ratio", Better: "lower", On: on(wlFit)},       // median q-error, QCFE-default qppnet
	{Name: "core.qerror_median_mscn_plain", Unit: "ratio", Better: "lower", On: on(wlFit)},   // median q-error, mscn without snapshot or reduction
	{Name: "core.qerror_median_qppnet_plain", Unit: "ratio", Better: "lower", On: on(wlFit)}, // median q-error, qppnet without snapshot or reduction
	{Name: "core.fit_s_mscn_plain", Unit: "s", Better: "lower", On: on(wlFit)},               // Pipeline.Fit wall time, mscn without snapshot or reduction
	// workload, engine, datagen
	{Name: "workload.label_us_per_query", Unit: "us", Better: "lower", On: on(wlFit)}, // CollectWorkload wall time per labelled query
	{Name: "engine.execute_us", Unit: "us", Better: "lower", On: on(wlFit)},           // Benchmark.Execute on a held-out query
	{Name: "datagen.build_ms", Unit: "ms", Better: "lower", On: on(wlFit)},            // qcfe.OpenBenchmark
	// snapshot, featred
	{Name: "snapshot.build_ms", Unit: "ms", Better: "lower", On: on(wlFit)},           // core.BuildSnapshotsCtx span, mscn fit
	{Name: "snapshot.sim_collection_ms", Unit: "ms", Better: "lower", On: on(wlFit)},  // simulated cost of labelling the snapshot
	{Name: "featred.reduce_ms", Unit: "ms", Better: "lower", On: on(wlFit)},           // core.Reduce span, mscn fit
	{Name: "featred.reduction_ratio", Unit: "ratio", Better: "higher", On: on(wlFit)}, // share of feature dimensions pruned
	{Name: "fit.collect_s", Unit: "s", Better: "lower", On: on(wlFit)},                // Benchmark.CollectWorkload wall time
	{Name: "fit.fit_s", Unit: "s", Better: "lower", On: on(wlFit)},                    // Pipeline.Fit wall time, mscn plus qppnet
	// loadgen, the harness itself
	{Name: "loadgen.lat_p90_us", Unit: "us", Better: "lower", On: onAll},                 // 90th percentile latency; its ten-seed spread reached 37-49% where the median's stayed within 25%
	{Name: "loadgen.lat_p99_us", Unit: "us", Better: "lower", On: onAll},                 // 99th percentile latency; swings 2-3x between identical runs
	{Name: "loadgen.lat_p999_us", Unit: "us", Better: "lower", On: onAll},                // 99.9th percentile latency
	{Name: "loadgen.samples", Unit: "count", Better: "higher", On: onAll},                // latency samples in the timed window
	{Name: "loadgen.attempted", Unit: "count", Better: "higher", On: onAll},              // requests sent in the timed window
	{Name: "loadgen.ok", Unit: "count", Better: "higher", On: onAll},                     // requests answered 200 in the timed window
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower", On: onServing},           // harness CPU over harness plus daemon CPU; above 0.5 the generator is the bottleneck
	{Name: "loadgen.slice_rate_spread", Unit: "ratio", Better: "lower", On: onServing},   // max minus min slice rate over the median
	{Name: "trace.roundtrip_vs_e2e_ratio", Unit: "ratio", Better: "lower", On: onSingle}, // traced depth-1 p50 over lat_p50_us: overhead and skew of the traced run
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
