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
	"repro/internal/experiments"
	"repro/internal/parallel"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: fig1|table4|fig5|fig6|fig7|table5|table6|table7|fig8|all")
	benchmark := flag.String("benchmark", "", "benchmark: tpch|sysbench|imdb (default: all applicable; -save/-load default: sysbench)")
	size := flag.String("size", "med", "grid size: quick|med|full")
	workers := flag.Int("workers", 0, "per-fan-out worker cap for parallel labeling and experiments; nested stages each use up to this many goroutines (0 = GOMAXPROCS)")
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

	var params experiments.Params
	switch *size {
	case "quick":
		params = experiments.QuickParams()
	case "med":
		params = experiments.MedParams()
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
	defer f.Close() // error paths only; the success path checks Close below
	if err := est.Save(f); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	// A write the kernel deferred can still fail here (full disk, NFS);
	// "saved" must not be printed for a truncated artifact.
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
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
