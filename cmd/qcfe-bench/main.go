// Command qcfe-bench runs the paper's experiments and prints the same rows
// and series the paper's tables and figures report.
//
// Usage:
//
//	qcfe-bench -exp table4 -benchmark tpch -size quick
//	qcfe-bench -exp all -size med -workers 8
//
// Experiments: fig1, table4, fig5, fig6, fig7, table5, table6, table7,
// fig8, all. Sizes: quick (seconds), med (minutes), full (the paper's
// scales; tens of minutes). Independent experiments and the labeling
// pipeline underneath them fan out over the worker pool (see -workers);
// every number printed is identical at any worker count, though with
// -exp all the experiment *blocks* appear in completion order, which may
// vary between runs when workers > 1.
//
// With -micro the command instead runs the estimator-stack
// microbenchmarks (train iters/sec, predictions/sec, batched vs scalar,
// serve-throughput, query-cache hit/miss, estimator hot-swap latency,
// routed fleet fan-out) on the quick grid and writes the
// machine-readable BENCH_PR7.json rows. This is the CI
// benchmark-regression pipeline:
//
//	qcfe-bench -micro -out BENCH_PR7.json -baseline BENCH_PR7.json
//
// exits non-zero when a gated predictions/sec row regresses more than
// -tolerance against the (machine-normalized) baseline, when the batched
// training iteration fails the -min-train-speedup floor against the
// retained scalar reference path, or when a warm cache-served estimate
// fails the -min-warm-speedup floor against the uncached
// serve/estimate-coalesced row from the same run — both before
// (serve/estimate-warm) and after (serve/estimate-warm-postswap) an
// estimator hot swap, so a swap that silently chilled the cache fails
// the gate. The routed path carries the same floor: router/estimate-warm
// and router/estimate-warm-postrollout (warm again after a full canary
// rollout) must each beat the uncached router/fanout-batch row of the
// same run. The warm rows are additionally held to the -max-warm-allocs
// allocs/op ceiling (default 0: a warm hit is a lock-free snapshot
// probe and must not allocate), and the baseline comparison fails on
// any allocs/op increase over those rows — allocation counts are
// machine-independent, so there is no tolerance.
//
// With -save the command instead trains one pipeline and writes the
// estimator as a persistent artifact; with -load it reads an artifact
// back and either evaluates it on a freshly collected test pool or (with
// -estimate) prices a semicolon-separated query list, printing the same
// {"ms":[...]} JSON the qcfe-serve /estimate_batch endpoint returns —
// the CI smoke test diffs the two to assert server/library parity:
//
//	qcfe-bench -save model.qcfe -benchmark sysbench -model mscn
//	qcfe-bench -load model.qcfe
//	qcfe-bench -load model.qcfe -env 0 -estimate 'SELECT ...;SELECT ...'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	qcfe "repro"
	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/parallel"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: fig1|table4|fig5|fig6|fig7|table5|table6|table7|fig8|all")
	benchmark := flag.String("benchmark", "", "benchmark: tpch|sysbench|imdb (default: all applicable; -save/-load default: sysbench)")
	size := flag.String("size", "med", "grid size: quick|med|full")
	workers := flag.Int("workers", 0, "per-fan-out worker cap for parallel labeling and experiments; nested stages each use up to this many goroutines (0 = GOMAXPROCS)")
	micro := flag.Bool("micro", false, "run the estimator microbenchmarks and emit BENCH_PR7.json rows instead of the experiment suite")
	out := flag.String("out", "BENCH_PR7.json", "with -micro: output path for the benchmark rows")
	baseline := flag.String("baseline", "", "with -micro: baseline BENCH_PR7.json to gate against (empty = no gate)")
	tolerance := flag.Float64("tolerance", 0.20, "with -micro -baseline: maximum allowed predictions/sec regression")
	minSpeedup := flag.Float64("min-train-speedup", 1.7, "with -micro: minimum batched/scalar training-iteration speedup on the mscn pair (0 disables; ~2.1-2.3x measured, floor set below for run-to-run noise)")
	minWarmSpeedup := flag.Float64("min-warm-speedup", 5.0, "with -micro: minimum warm cache-hit serving speedup over uncached coalesced serving, same-run rows so machine speed cancels (0 disables; orders of magnitude measured)")
	maxWarmAllocs := flag.Int64("max-warm-allocs", 0, "with -micro: maximum allocs/op allowed on the warm cache-hit rows (qcache/hit, serve/estimate-warm, serve/estimate-warm-postswap); negative disables (0 enforced by default — the warm path is allocation-free)")
	maxHistRecordNs := flag.Float64("max-hist-record-ns", 50, "with -micro: ceiling on the obs/histogram-record row's ns/op — the per-sample cost observability adds to every hot path (0 disables; two uncontended atomic adds measure ~5-10ns)")
	savePath := flag.String("save", "", "train one pipeline and write the estimator artifact to this path")
	loadPath := flag.String("load", "", "load an estimator artifact and evaluate it (or price -estimate queries)")
	model := flag.String("model", "mscn", "with -save: estimator to train (mscn|qppnet|analytic)")
	envCount := flag.Int("envs", 3, "with -save: number of sampled environments")
	perEnv := flag.Int("per-env", 120, "with -save: labeled queries per environment")
	trainIters := flag.Int("train-iters", 120, "with -save: training iterations")
	seed := flag.Int64("seed", 1, "with -save/-load: benchmark + pipeline seed")
	envID := flag.Int("env", 0, "with -load -estimate: environment ID to price under")
	estimate := flag.String("estimate", "", "with -load: semicolon-separated SQL list to price; prints {\"ms\":[...]}")
	flag.Parse()

	parallel.SetDefaultWorkers(*workers)

	switch {
	case *savePath != "" && *loadPath != "":
		fmt.Fprintln(os.Stderr, "qcfe-bench: -save and -load are mutually exclusive")
		os.Exit(2)
	case *savePath != "":
		if err := runSave(*savePath, benchOrDefault(*benchmark), *model, *envCount, *perEnv, *trainIters, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "qcfe-bench: %v\n", err)
			os.Exit(1)
		}
		return
	case *loadPath != "":
		if err := runLoad(*loadPath, *envID, *estimate, *perEnv, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "qcfe-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *micro {
		if err := runMicro(*out, *baseline, *tolerance, *minSpeedup, *minWarmSpeedup, *maxWarmAllocs, *maxHistRecordNs); err != nil {
			fmt.Fprintf(os.Stderr, "qcfe-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var params experiments.Params
	switch *size {
	case "quick":
		params = experiments.QuickParams()
	case "med":
		params = MedParams()
	case "full":
		params = experiments.DefaultParams()
	default:
		fmt.Fprintf(os.Stderr, "unknown size %q\n", *size)
		os.Exit(2)
	}
	suite := experiments.NewSuite(params, os.Stdout)

	benchmarks := []string{"tpch", "sysbench", "imdb"}
	if *benchmark != "" {
		benchmarks = []string{*benchmark}
	}
	if err := suite.RunAll(*exp, benchmarks); err != nil {
		fmt.Fprintf(os.Stderr, "qcfe-bench: %v\n", err)
		os.Exit(1)
	}
}

// benchOrDefault resolves the -benchmark flag for the single-benchmark
// save/load modes.
func benchOrDefault(name string) string {
	if name == "" {
		return "sysbench"
	}
	return name
}

// runSave trains one pipeline end to end (collect → fit) and writes the
// estimator artifact — the "train once" half of the train-once/serve-many
// flow. The printed summary reports what went into the artifact.
func runSave(path, benchmark, model string, envCount, perEnv, trainIters int, seed int64) error {
	b, err := qcfe.OpenBenchmark(benchmark, seed)
	if err != nil {
		return err
	}
	envs := qcfe.RandomEnvironments(envCount, seed)
	pool, err := b.CollectWorkload(envs, perEnv, seed)
	if err != nil {
		return err
	}
	train, test := pool.Split(0.8)
	est, err := qcfe.NewPipeline(model, qcfe.WithTrainIters(trainIters), qcfe.WithSeed(seed)).Fit(b, envs, train)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := est.Save(f); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	sum := est.Evaluate(test)
	fmt.Printf("saved %s estimator for %s to %s (%d bytes)\n", model, benchmark, path, info.Size())
	fmt.Printf("trained %.1fs on %d samples across %d environments; test mean q-error %.2f\n",
		est.TrainSeconds(), len(train), envCount, sum.Mean)
	return nil
}

// runLoad reads an artifact back. With -estimate it prices the
// semicolon-separated query list under -env and prints the same
// {"ms":[...]} JSON body the qcfe-serve /estimate_batch endpoint
// returns (the CI smoke test diffs the two). Without it, it re-collects
// a labeled pool over the artifact's environments and reports the loaded
// model's test metrics.
func runLoad(path string, envID int, estimate string, perEnv int, seed int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	est, err := qcfe.LoadEstimator(f)
	f.Close()
	if err != nil {
		return err
	}
	if estimate != "" {
		var env *qcfe.Environment
		for _, e := range est.Environments() {
			if e.ID == envID {
				env = e
				break
			}
		}
		if env == nil {
			return fmt.Errorf("artifact has no environment %d", envID)
		}
		var sqls []string
		for _, q := range strings.Split(estimate, ";") {
			if q = strings.TrimSpace(q); q != "" {
				sqls = append(sqls, q)
			}
		}
		ms, err := est.EstimateSQLBatch(env, sqls)
		if err != nil {
			return err
		}
		if ms == nil {
			ms = []float64{} // "ms":[] like the server, never "ms":null
		}
		// Mirror serve.BatchResponse exactly, down to the trailing newline
		// of json.Encoder, so `diff` against a curl of /estimate_batch is
		// a byte-level parity check.
		return json.NewEncoder(os.Stdout).Encode(struct {
			Ms []float64 `json:"ms"`
		}{Ms: ms})
	}
	fmt.Printf("loaded %s estimator for %s (%d environments, trained %.1fs)\n",
		est.ModelName(), est.BenchmarkName(), len(est.Environments()), est.TrainSeconds())
	pool, err := est.Benchmark().CollectWorkload(est.Environments(), perEnv, seed)
	if err != nil {
		return err
	}
	_, test := pool.Split(0.8)
	sum := est.Evaluate(test)
	fmt.Printf("test mean q-error %.2f (median %.2f, p90 %.2f) on %d samples\n",
		sum.Mean, sum.Median, sum.P90, len(test))
	return nil
}

// runMicro runs the microbenchmarks, writes the JSON rows, and applies
// the CI gates: the training-iteration speedup floor, the warm
// cache-hit serving speedup floor (each comparing two rows of the same
// run, so machine speed cancels exactly), the warm-row allocs/op
// ceiling (a count, no normalization needed), and, when a baseline is
// given, the predictions/sec regression tolerance plus the no-new-allocs
// comparison on the same warm rows. The histogram-record ceiling bounds
// what one observability sample may cost the hot paths.
func runMicro(out, baseline string, tolerance, minSpeedup, minWarmSpeedup float64, maxWarmAllocs int64, maxHistRecordNs float64) error {
	rows, err := bench.Run()
	if err != nil {
		return err
	}
	if err := bench.WriteJSON(out, rows); err != nil {
		return err
	}
	fmt.Printf("%-24s %14s %14s %10s\n", "benchmark", "ns/op", "ops/sec", "allocs/op")
	for _, r := range rows {
		fmt.Printf("%-24s %14.1f %14.0f %10d\n", r.Name, r.NsPerOp, 1e9/r.NsPerOp, r.AllocsPerOp)
	}
	speedup, err := bench.Speedup(rows, bench.MSCNTrainIterScalar, bench.MSCNTrainIterBatch)
	if err != nil {
		return err
	}
	qppSpeedup, err := bench.Speedup(rows, bench.QPPTrainIterScalar, bench.QPPTrainIterBatch)
	if err != nil {
		return err
	}
	fmt.Printf("\ntrain-iteration speedup (batched vs scalar): mscn %.2fx, qppnet %.2fx\n", speedup, qppSpeedup)
	if minSpeedup > 0 && speedup < minSpeedup {
		return fmt.Errorf("training-iteration speedup %.2fx below required %.2fx", speedup, minSpeedup)
	}
	warm, err := bench.WarmServeSpeedup(rows)
	if err != nil {
		return err
	}
	fmt.Printf("warm-hit serving speedup (cache hit vs coalesced): %.1fx\n", warm)
	if minWarmSpeedup > 0 && warm < minWarmSpeedup {
		return fmt.Errorf("warm-hit serving speedup %.1fx below required %.1fx", warm, minWarmSpeedup)
	}
	postSwap, err := bench.PostSwapWarmSpeedup(rows)
	if err != nil {
		return err
	}
	fmt.Printf("post-hot-swap warm-hit serving speedup: %.1fx\n", postSwap)
	if minWarmSpeedup > 0 && postSwap < minWarmSpeedup {
		return fmt.Errorf("post-swap warm-hit speedup %.1fx below required %.1fx — the hot swap chilled the cache", postSwap, minWarmSpeedup)
	}
	multiTenant, err := bench.MultiTenantWarmSpeedup(rows)
	if err != nil {
		return err
	}
	fmt.Printf("multi-tenant warm-hit serving speedup: %.1fx\n", multiTenant)
	if minWarmSpeedup > 0 && multiTenant < minWarmSpeedup {
		return fmt.Errorf("multi-tenant warm-hit speedup %.1fx below required %.1fx — the tenant layer is taxing the warm path", multiTenant, minWarmSpeedup)
	}
	routed, err := bench.RouterWarmSpeedup(rows)
	if err != nil {
		return err
	}
	fmt.Printf("routed warm-hit speedup (warm fleet vs uncached fan-out): %.1fx\n", routed)
	if minWarmSpeedup > 0 && routed < minWarmSpeedup {
		return fmt.Errorf("routed warm-hit speedup %.1fx below required %.1fx", routed, minWarmSpeedup)
	}
	postRollout, err := bench.PostRolloutWarmSpeedup(rows)
	if err != nil {
		return err
	}
	fmt.Printf("post-rollout routed warm-hit speedup: %.1fx\n", postRollout)
	if minWarmSpeedup > 0 && postRollout < minWarmSpeedup {
		return fmt.Errorf("post-rollout routed warm-hit speedup %.1fx below required %.1fx — the rollout chilled the fleet's caches", postRollout, minWarmSpeedup)
	}
	if maxWarmAllocs >= 0 {
		idx := bench.Index(rows)
		for _, name := range bench.AllocGated {
			r, ok := idx[name]
			if !ok {
				return fmt.Errorf("alloc gate: row %q missing from this run", name)
			}
			if r.AllocsPerOp > maxWarmAllocs {
				return fmt.Errorf("alloc gate: %s at %d allocs/op exceeds -max-warm-allocs %d — the warm path must stay allocation-free",
					name, r.AllocsPerOp, maxWarmAllocs)
			}
		}
		fmt.Printf("warm-row alloc gate passed (ceiling %d allocs/op)\n", maxWarmAllocs)
	}
	if maxHistRecordNs > 0 {
		r, ok := bench.Index(rows)[bench.ObsHistRecord]
		if !ok {
			return fmt.Errorf("hist-record gate: row %q missing from this run", bench.ObsHistRecord)
		}
		if r.NsPerOp > maxHistRecordNs {
			return fmt.Errorf("hist-record gate: %s at %.1f ns/op exceeds -max-hist-record-ns %.1f — a latency sample must stay two cheap atomic adds",
				bench.ObsHistRecord, r.NsPerOp, maxHistRecordNs)
		}
		fmt.Printf("histogram-record gate passed (%.1f ns/op, ceiling %.1f)\n", r.NsPerOp, maxHistRecordNs)
	}
	if baseline != "" {
		base, err := bench.ReadJSON(baseline)
		if err != nil {
			return err
		}
		if err := bench.Compare(base, rows, tolerance); err != nil {
			return err
		}
		fmt.Printf("regression gate passed (tolerance %.0f%%)\n", 100*tolerance)
	}
	return nil
}

// MedParams is a middle grid: every experiment, reduced pools.
func MedParams() experiments.Params {
	return experiments.Params{
		NumEnvs:     10,
		PerEnv:      map[string]int{"tpch": 400, "sysbench": 500, "imdb": 300},
		Scales:      []int{1000, 2000, 4000},
		Iters:       map[string]int{"tpch": 600, "sysbench": 150, "imdb": 600},
		Fig1Queries: 500,
		Seed:        1,
	}
}
