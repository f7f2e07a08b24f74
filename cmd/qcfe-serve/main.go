// Command qcfe-serve is the serving daemon of the train-once/serve-many
// flow: it loads a model artifact written by CostEstimator.Save (e.g.
// via `qcfe-bench -save`), and serves cost estimates over HTTP: a
// single-query miss is priced on its request's own goroutine, so
// concurrent requests price in parallel, and /estimate_batch runs a
// client's batch through the batched inference kernels.
//
// Usage:
//
//	qcfe-serve -artifact model.qcfe -addr :8080
//
// Endpoints:
//
//	POST /estimate        {"env":0,"sql":"SELECT ..."}  → {"ms":1.23}
//	POST /estimate_batch  {"env":0,"sqls":["...",...]}  → {"ms":[...]}
//	GET  /healthz                                       → model identity + artifact generation
//	GET  /stats                                         → serving counters
//	POST /swap            admin: stage/commit/rollback an artifact swap
//	GET  /generation      admin: serving + staged artifact generations
//	GET  /metrics                                       → Prometheus text exposition
//	GET  /trace/recent                                  → recent finished request traces
//	GET  /version                                       → build identification
//	GET  /debug/pprof/    admin: net/http/pprof profiles
//
// The admin endpoints exist for qcfe-router's canary-gated fleet
// rollouts and are enabled by -admin-token (disabled with 403 when the
// flag is empty); -advertise names this replica in /healthz.
//
// A sharded query-fingerprint cache (on by default; -cache=false
// disables, -cache-capacity sizes it) answers warm
// repeats before they are priced and reuses plan skeletons and
// featurizations across literal variants; /stats reports per-tier
// hit/miss/size counters.
//
// With -adapt the daemon also runs the online-adaptation loop
// (internal/online): served estimates are opportunistically replayed
// through the execution engine for ground-truth labels (every
// -label-every-th request; POST /shadow submits client-observed
// latencies directly), the rolling median q-error is tracked against
// -drift-threshold, and on drift the model is incrementally retrained
// on the last -retrain-window labeled queries and hot-swapped in — an
// atomic pointer swap: in-flight requests finish on the old model, new
// requests see the new one, and the new artifact generation invalidates
// the query cache without a lock. /stats gains a "drift" block.
//
// Predictions are bit-identical to the library's EstimateSQL on the same
// artifact, cached or not. SIGINT/SIGTERM trigger a graceful shutdown:
// the HTTP server stops accepting and drains its in-flight requests.
//
// # Multi-tenant mode
//
// With -tenants the daemon hosts several artifacts in one process
// (internal/tenant) instead of one:
//
//	qcfe-serve -tenants alpha=a.qcfe,beta=b.qcfe -tenant-weights alpha=3,beta=1 -max-inflight 32
//
// Each tenant gets its own serving front end, its own tenant-namespaced
// query cache, and (with -adapt) its own drift monitor; requests name
// their tenant via the X-QCFE-Tenant header or the body's "tenant"
// field. Admission divides -max-inflight NN slots into weighted
// fair-share floors (-tenant-weights; default 1 each), and under
// overload a tenant's requests walk the degradation ladder: warm-cache
// hits always serve, then the analytic fallback answers with
// "degraded":true, then 429 + Retry-After. /stats gains a per-tenant
// block with queue depth and shed/degrade counters. -artifact and
// -tenants are mutually exclusive.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	qcfe "repro"
	"repro/internal/httpx"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/tenant"
)

func main() {
	artifactPath := flag.String("artifact", "", "path to a model artifact written by CostEstimator.Save / qcfe-bench -save (required unless -tenants)")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	cache := flag.Bool("cache", true, "enable the sharded query-fingerprint cache (template/feature/prediction tiers); hits are bit-identical to cold estimates")
	cacheCapacity := flag.Int("cache-capacity", 0, "cache entry budget per tier (0 = 4096)")
	adapt := flag.Bool("adapt", false, "enable drift-monitored online adaptation: label served traffic, retrain incrementally on drift, hot-swap atomically")
	driftThreshold := flag.Float64("drift-threshold", 2.0, "with -adapt: rolling median q-error above which the model is retrained")
	retrainWindow := flag.Int("retrain-window", 256, "with -adapt: sliding window of recent labeled queries retraining uses")
	retrainIters := flag.Int("retrain-iters", 60, "with -adapt: training iterations per incremental retrain")
	labelEvery := flag.Int("label-every", 8, "with -adapt: replay every Nth served estimate through the engine for a ground-truth label (1 = label everything)")
	adminToken := flag.String("admin-token", "", "enable the /swap and /generation admin endpoints, authenticated by this X-QCFE-Admin-Token value (empty = admin surface disabled); required for qcfe-router rollouts")
	advertise := flag.String("advertise", "", "replica identity echoed in /healthz (e.g. this host's URL in a qcfe-router fleet)")
	tenantsSpec := flag.String("tenants", "", "multi-tenant mode: comma-separated name=artifact pairs (e.g. alpha=a.qcfe,beta=b.qcfe); mutually exclusive with -artifact")
	tenantWeights := flag.String("tenant-weights", "", "with -tenants: comma-separated name=weight fair-share weights (unlisted tenants weigh 1)")
	maxInflight := flag.Int("max-inflight", 0, "with -tenants: NN-path inflight-slot budget divided into weighted per-tenant floors (0 = 4×GOMAXPROCS)")
	slowQuery := flag.Duration("slow-query-threshold", 0, "log every request slower than this as one structured JSON line on stderr, with its trace ID and stage spans (0 = off)")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *showVersion {
		httpx.PrintVersion("qcfe-serve")
		return
	}
	if (*artifactPath == "") == (*tenantsSpec == "") {
		fmt.Fprintln(os.Stderr, "qcfe-serve: exactly one of -artifact or -tenants is required")
		flag.Usage()
		os.Exit(2)
	}

	var copts *qcfe.CacheOptions
	if *cache {
		copts = &qcfe.CacheOptions{Capacity: *cacheCapacity}
	}
	var aopts *online.Options
	if *adapt {
		aopts = &online.Options{
			Window:         *retrainWindow,
			DriftThreshold: *driftThreshold,
			RetrainIters:   *retrainIters,
			LabelEvery:     *labelEvery,
		}
	}
	sopts := serve.Options{
		AdminToken:         *adminToken,
		Advertise:          *advertise,
		SlowQueryThreshold: *slowQuery,
	}
	var err error
	if *tenantsSpec != "" {
		err = runMulti(*tenantsSpec, *tenantWeights, *maxInflight, *addr, sopts, copts, aopts)
	} else {
		err = run(*artifactPath, *addr, sopts, copts, aopts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qcfe-serve: %v\n", err)
		os.Exit(1)
	}
}

// runMulti is the -tenants boot path: load every named artifact, build
// the fair-share registry, wire an independent drift monitor per tenant
// when -adapt is on, and serve the registry's handler.
func runMulti(specs, weightsSpec string, maxInflight int, addr string, opts serve.Options, copts *qcfe.CacheOptions, aopts *online.Options) error {
	weights, err := parseWeights(weightsSpec)
	if err != nil {
		return err
	}
	var cfgs []tenant.Config
	for _, pair := range strings.Split(specs, ",") {
		name, path, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad -tenants entry %q (want name=artifact)", pair)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		est, err := qcfe.LoadEstimator(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("tenant %q: %w", name, err)
		}
		fmt.Printf("qcfe-serve: tenant %q: loaded %s estimator for %s (%d environments)\n",
			name, est.ModelName(), est.BenchmarkName(), len(est.Environments()))
		cfgs = append(cfgs, tenant.Config{Name: name, Est: est, Weight: weights[name]})
		delete(weights, name)
	}
	for name := range weights {
		return fmt.Errorf("-tenant-weights names unknown tenant %q", name)
	}

	reg, err := tenant.New(tenant.Options{
		Serve:       opts,
		MaxInflight: maxInflight,
		Cache:       copts,
	}, cfgs)
	if err != nil {
		return err
	}
	fmt.Printf("qcfe-serve: multi-tenant mode: %d tenants %v; name requests with the %s header or \"tenant\" field\n",
		len(reg.Names()), reg.Names(), httpx.TenantHeader)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if aopts != nil {
		for _, tc := range cfgs {
			t, err := reg.Tenant(tc.Name)
			if err != nil {
				return err
			}
			srv := t.Server()
			ad := online.New(tc.Est, *aopts, func(next *qcfe.CostEstimator) { srv.SwapEstimator(next) })
			srv.SetMonitor(ad)
			go ad.Run(ctx)
		}
		fmt.Printf("qcfe-serve: online adaptation on per tenant (window %d, drift threshold %.2f)\n",
			aopts.Window, aopts.DriftThreshold)
	}

	return httpx.Serve(ctx, "qcfe-serve", addr, reg.Handler())
}

// parseWeights parses "name=N,name=N" into a map.
func parseWeights(spec string) (map[string]int, error) {
	weights := make(map[string]int)
	if spec == "" {
		return weights, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenant-weights entry %q (want name=weight)", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -tenant-weights entry %q: weight must be a positive integer", pair)
		}
		weights[name] = w
	}
	return weights, nil
}

func run(artifactPath, addr string, opts serve.Options, copts *qcfe.CacheOptions, aopts *online.Options) error {
	f, err := os.Open(artifactPath)
	if err != nil {
		return err
	}
	est, err := qcfe.LoadEstimator(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("qcfe-serve: loaded %s estimator for %s (%d environments, trained %.1fs)\n",
		est.ModelName(), est.BenchmarkName(), len(est.Environments()), est.TrainSeconds())
	if copts != nil {
		c := qcfe.NewQueryCache(*copts)
		est.AttachCache(c)
		st := c.Stats()
		fmt.Printf("qcfe-serve: query cache on (%d shards, %d entries/tier, generation %x); /stats reports per-tier hits\n",
			st.Shards, st.Capacity, st.Generation)
	}

	if opts.AdminToken != "" {
		fmt.Println("qcfe-serve: admin endpoints on (/swap, /generation; authenticate with X-QCFE-Admin-Token)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := serve.New(est, opts)
	if aopts != nil {
		ad := online.New(est, *aopts, func(next *qcfe.CostEstimator) { srv.SwapEstimator(next) })
		srv.SetMonitor(ad)
		go ad.Run(ctx)
		fmt.Printf("qcfe-serve: online adaptation on (window %d, drift threshold %.2f, %d retrain iters, labeling every %d); POST /shadow submits ground truth\n",
			aopts.Window, aopts.DriftThreshold, aopts.RetrainIters, aopts.LabelEvery)
	}

	return httpx.Serve(ctx, "qcfe-serve", addr, srv.Handler())
}
