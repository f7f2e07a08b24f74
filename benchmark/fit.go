package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	qcfe "repro"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/workload"
)

// training is one pass of the fit recipe with its wall times.
type training struct {
	bench       *qcfe.Benchmark
	envs        []*qcfe.Environment
	pool        *qcfe.Workload
	train, test []workload.Sample
	mscn, qpp   *qcfe.CostEstimator
	artifact    []byte // the saved mscn estimator

	openS, collectS, fitMscnS, fitQppS, saveS float64
	cpuAfterOpen                              float64 // the process's CPU seconds once the dataset was built
}

// trainReference runs the recipe: open TPC-H, label 3x120 queries, split
// 80/20, fit QCFE-default mscn (and qppnet when withQpp), save mscn.
func trainReference(ctx context.Context, withQpp bool) (*training, error) {
	tr := &training{}
	var err error
	t0 := time.Now()
	if tr.bench, err = qcfe.OpenBenchmark(fitBenchmark, fitSeed); err != nil {
		return nil, err
	}
	tr.openS = time.Since(t0).Seconds()
	tr.cpuAfterOpen = selfCPUSeconds()
	tr.envs = qcfe.RandomEnvironments(fitEnvs, fitSeed)

	t0 = time.Now()
	if tr.pool, err = tr.bench.CollectWorkloadCtx(ctx, tr.envs, fitPerEnv, fitSeed); err != nil {
		return nil, err
	}
	tr.collectS = time.Since(t0).Seconds()
	tr.train, tr.test = tr.pool.Split(fitTrainFrac)

	t0 = time.Now()
	if tr.mscn, err = qcfe.NewPipeline("mscn", qcfe.WithSeed(fitSeed)).FitCtx(ctx, tr.bench, tr.envs, tr.train); err != nil {
		return nil, err
	}
	tr.fitMscnS = time.Since(t0).Seconds()
	if withQpp {
		t0 = time.Now()
		if tr.qpp, err = qcfe.NewPipeline("qppnet", qcfe.WithSeed(fitSeed)).FitCtx(ctx, tr.bench, tr.envs, tr.train); err != nil {
			return nil, err
		}
		tr.fitQppS = time.Since(t0).Seconds()
	}

	var buf bytes.Buffer
	t0 = time.Now()
	if err = tr.mscn.Save(&buf); err != nil {
		return nil, err
	}
	tr.saveS = time.Since(t0).Seconds()
	tr.artifact = buf.Bytes()
	return tr, nil
}

// probeFor is how long runFit times EstimateSQL calls.
const probeFor = 3 * time.Second

// runFit is the offline workload. It has no timed window: the unit of
// work is fixed (one pass of the recipe), so -seconds does not apply; the
// request seed orders the in-process latency probe.
func runFit(ctx context.Context, cfg config) (*result, error) {
	res := newResult(wlFit, cfg.seed)
	tr, err := trainReference(ctx, true)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sumM, sumQ := tr.mscn.Evaluate(tr.test), tr.qpp.Evaluate(tr.test)
	evalS := time.Since(t0).Seconds()
	cpu := selfCPUSeconds() - tr.cpuAfterOpen // OpenBenchmark is set-up, not work
	fitS := tr.fitMscnS + tr.fitQppS
	pool := float64(tr.pool.Len())

	// Round trip: the saved artifact must reproduce the q-error exactly.
	loaded, err := qcfe.LoadEstimator(bytes.NewReader(tr.artifact))
	if err != nil {
		return nil, fmt.Errorf("fit: reload saved artifact: %w", err)
	}
	res.check(loaded.Evaluate(tr.test) == sumM, "Save -> LoadEstimator -> Evaluate does not reproduce the q-error summary")

	// What a library caller waits for: EstimateSQL on each held-out query,
	// no cache attached, for probeFor: long enough that a burst of host
	// contention, which lasts under a second, does not set the median. Each
	// answer must equal the fitted model's prediction for the labelled plan.
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(tr.test))
	var lats []time.Duration
	for pass, until := 0, time.Now().Add(probeFor); pass == 0 || time.Now().Before(until); pass++ {
		for _, i := range order {
			s := tr.test[i]
			env := envByID(loaded.Environments(), s.EnvID)
			t0 := time.Now()
			ms, err := loaded.EstimateSQL(env, s.SQL)
			lats = append(lats, time.Since(t0))
			if pass == 0 {
				res.check(err == nil && ms == tr.mscn.EstimateMs(s.Plan), "EstimateSQL differs from the fitted model on %q", s.SQL)
			}
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}

	// Set-up, three times: datagen.Build keeps one dataset per seed, so the
	// neighbouring seeds build afresh, as the training seed did above in
	// this process, which is a fresh one for every run.
	opens := []float64{tr.openS}
	for _, s := range []int64{fitSeed + 1, fitSeed + 2} {
		t0 := time.Now()
		if _, err := qcfe.OpenBenchmark(fitBenchmark, s); err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(t0).Seconds())
	}

	res.e2e = map[string]float64{
		"queries_per_s":           pool / (tr.collectS + fitS + evalS),
		"lat_p50_us":              us(quantile(lats, 0.5)),
		"server_cpu_us_per_query": cpu * 1e6 / pool,
		"server_rss_mb":           rss,
		"setup_s":                 median(opens),
		"qerror_median":           sumM.Median,
		"qerror_p90":              sumM.P90,
	}
	res.layer = map[string]float64{
		"fit.collect_s":               tr.collectS,
		"fit.fit_s":                   fitS,
		"workload.label_us_per_query": tr.collectS * 1e6 / pool,
		"datagen.build_ms":            median(opens) * 1e3,
		"artifact.bytes":              float64(len(tr.artifact)),
		"artifact.save_ms":            tr.saveS * 1e3,
		"core.evaluate_us_per_sample": evalS * 1e6 / float64(2*len(tr.test)),
		"core.qerror_median_qppnet":   sumQ.Median,
		"loadgen.lat_p90_us":          us(quantile(lats, 0.9)),
		"loadgen.lat_p99_us":          us(quantile(lats, 0.99)),
		"loadgen.lat_p999_us":         us(quantile(lats, 0.999)),
		"loadgen.samples":             float64(len(lats)),
		"loadgen.attempted":           float64(res.attempted),
		"loadgen.ok":                  float64(res.attempted - res.failed),
	}
	logf("fit: collect %.2fs, fit mscn %.2fs + qppnet %.2fs, q-error median mscn %.4f qppnet %.4f",
		tr.collectS, tr.fitMscnS, tr.fitQppS, sumM.Median, sumQ.Median)
	// The model just trained is the one the serving workloads boot.
	if _, err := os.Stat(filepath.Join(cfg.paths.modelDir(), "mscn.qcfe")); err != nil {
		if _, err := cfg.paths.storeModel(tr, sumM); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		if err := traceFit(ctx, cfg, tr, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// decomposed times the four public calls core.RunCtx composes, each under
// a span of one root, and returns the root and the four children.
type decomposed struct {
	root, build, reduce, newEst, train float64 // seconds
	simMs                              float64 // simulated snapshot collection cost
	f                                  *encoding.Featurizer
}

func decompose(ctx context.Context, t *tracer, trace int64, tr *training, c core.Config) (decomposed, error) {
	ds := tr.bench.Dataset()
	plans, labels := workload.PlansAndLabels(tr.train)
	d := decomposed{f: &encoding.Featurizer{Enc: encoding.New(ds.Schema)}}
	seconds := func(id int64) float64 { s := t.spans[id-1]; return float64(s.EndNs-s.StartNs) / 1e9 }
	root := t.begin(trace, 0, "core", "run_ctx_decomposed")

	id := t.begin(trace, root, "snapshot", "build_snapshots")
	snaps, simMs, err := core.BuildSnapshotsCtx(ctx, ds, tr.envs, c)
	t.end(id)
	if err != nil {
		return d, err
	}
	d.f.Snaps, d.simMs, d.build = snaps, simMs, seconds(id)

	id = t.begin(trace, root, "featred", "reduce")
	mask, _, err := core.Reduce(d.f, tr.train, c)
	t.end(id)
	if err != nil {
		return d, err
	}
	d.f.Mask, d.reduce = mask, seconds(id)

	id = t.begin(trace, root, "core", "new_estimator")
	m, err := core.NewEstimator(c.Model, d.f, ds.Stats, c.Seed)
	t.end(id)
	if err != nil {
		return d, err
	}
	d.newEst = seconds(id)

	id = t.begin(trace, root, c.Model, "train")
	_, err = m.TrainCtx(ctx, plans, labels, c.TrainIters)
	t.end(id)
	t.end(root)
	d.train, d.root = seconds(id), seconds(root)
	return d, err
}

// traceFit is the traced half of the fit workload: the four public calls
// core.RunCtx composes, each under a span, for both models; the plain
// variants; and the single-call probes of artifact, engine and models.
func traceFit(ctx context.Context, cfg config, tr *training, res *result) error {
	t := newTracer(wlFit)
	for ti, name := range []string{"mscn", "qppnet"} {
		c := core.DefaultConfig(name)
		c.Seed = fitSeed
		// The decomposition must explain the fused call: its four spans
		// against one core.RunCtx, back to back. The host only ever slows a
		// measurement down, and by more than 10% for minutes at a time, so
		// the fastest of up to three attempts stands for each side.
		var d decomposed
		fastD, fastF, gap := math.Inf(1), math.Inf(1), math.Inf(1)
		for attempt := 0; attempt < 3 && gap >= 0.10; attempt++ {
			var err error
			trace := int64(3*ti + attempt + 1)
			runtime.GC()
			if d, err = decompose(ctx, t, trace, tr, c); err != nil {
				return err
			}
			runtime.GC()
			id := t.begin(trace, 0, "core", "run_ctx")
			_, err = core.RunCtx(ctx, tr.bench.Dataset(), tr.envs, tr.train, c)
			t.end(id)
			if err != nil {
				return err
			}
			fused := float64(t.spans[id-1].EndNs-t.spans[id-1].StartNs) / 1e9
			fastD, fastF = min(fastD, d.root), min(fastF, fused)
			gap = math.Abs(fastD/fastF - 1)
			logf("fit trace: %s decomposed %.3fs vs RunCtx %.3fs; fastest so far %.3fs vs %.3fs (%.1f%% apart)",
				name, d.root, fused, fastD, fastF, gap*100)
		}
		res.check(gap < 0.10, "%s: the four decomposed calls take %.3fs, RunCtx takes %.3fs: more than 10%% apart", name, fastD, fastF)

		res.layer[name+".train_s"] = d.train
		res.layer[name+".train_iter_us"] = d.train * 1e6 / float64(c.TrainIters)
		if name == "mscn" {
			res.layer["snapshot.build_ms"] = d.build * 1e3
			res.layer["snapshot.sim_collection_ms"] = d.simMs
			res.layer["featred.reduce_ms"] = d.reduce * 1e3
			res.layer["featred.reduction_ratio"] = tr.mscn.ReductionRatio()
			res.layer["encoding.feature_dim_raw"] = float64(d.f.RawDim())
			res.layer["encoding.feature_dim_kept"] = float64(d.f.Dim())
		}
	}

	// The paper's claim, as layer metrics: QCFE against the plain variants.
	for ti, name := range []string{"mscn", "qppnet"} {
		id := t.begin(int64(10+ti), 0, "core", "fit_plain_"+name)
		est, err := qcfe.NewPipeline(name, qcfe.WithSeed(fitSeed), qcfe.WithoutSnapshot(), qcfe.WithReduction("none")).Fit(tr.bench, tr.envs, tr.train)
		t.end(id)
		if err != nil {
			return err
		}
		res.layer["core.qerror_median_"+name+"_plain"] = est.Evaluate(tr.test).Median
		if name == "mscn" {
			res.layer["core.fit_s_mscn_plain"] = t.stat("core", "fit_plain_mscn").p50 / 1e9
		}
	}

	// Single-call probes.
	for i := 0; i < 20; i++ {
		id := t.begin(int64(100+i), 0, "artifact", "load")
		_, err := qcfe.LoadEstimator(bytes.NewReader(tr.artifact))
		t.end(id)
		if err != nil {
			return err
		}
	}
	res.layer["artifact.load_ms"] = t.stat("artifact", "load").p50 / 1e6
	for i, s := range tr.test {
		id := t.begin(int64(200+i), 0, "engine", "execute")
		_, err := tr.bench.Execute(envByID(tr.envs, s.EnvID), s.SQL)
		t.end(id)
		if err != nil {
			return err
		}
	}
	res.layer["engine.execute_us"] = t.stat("engine", "execute").p50 / 1e3

	var qbuf bytes.Buffer
	if err := tr.qpp.Save(&qbuf); err != nil {
		return err
	}
	art, err := core.LoadArtifact(&qbuf)
	if err != nil {
		return err
	}
	fps := make([]*encoding.FeaturizedPlan, 0, 64)
	for _, s := range tr.test[:min(64, len(tr.test))] {
		fps = append(fps, art.Res.F.Featurize(s.Plan))
	}
	for i := 0; i < 50; i++ {
		id := t.begin(int64(300+i), 0, "qppnet", "predict64")
		art.Res.Model.PredictFeaturizedBatch(fps)
		t.end(id)
	}
	res.layer["qppnet.predict64_ns_per_plan"] = t.stat("qppnet", "predict64").p50 / float64(len(fps))
	res.layer["linalg.calib_fma_ns"] = calibFMA(t)
	return finishTrace(cfg, t, res)
}
