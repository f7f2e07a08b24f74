// Package core is the QCFE pipeline — the paper's primary contribution
// assembled end to end, in two steps:
//
//  1. Fit the feature engineering once, as a Features value. Build a
//     feature snapshot per environment (§III), either from the original
//     workload queries (FSO) or from simplified templates generated by
//     Algorithm 1 (FST), append the snapshot block to the general feature
//     encoding, and prune useless dimensions with feature reduction (§IV):
//     difference propagation (FR), or the gradient / greedy baselines.
//  2. Train a downstream estimator (QPPNet or MSCN) on the Features and
//     evaluate it. A Features is never modified after fitting, so any
//     number of models train on one.
//
// RunCtx composes the two. The pipeline is model-agnostic through the
// Estimator interface, which is how the paper plugs one QCFE feature set
// into both QPPNet ("QCFE(qpp)") and MSCN ("QCFE(mscn)").
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/encoding"
	"repro/internal/featred"
	"repro/internal/metrics"
	"repro/internal/mscn"
	"repro/internal/parallel"
	"repro/internal/planner"
	"repro/internal/qppnet"
	"repro/internal/snapshot"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// Estimator is the downstream cost model interface; QPPNet, MSCN, and
// the analytic baseline satisfy it.
type Estimator interface {
	Name() string
	// TrainCtx fits the model for iters minibatch steps on (plan,
	// milliseconds) pairs and returns the wall-clock training time. The
	// loop checks ctx between minibatch steps (never mid-step), so
	// cancellation stops training promptly and always leaves the weights in
	// the consistent state of the last completed optimizer step. It returns
	// the elapsed training time together with ctx's error when cancelled.
	TrainCtx(ctx context.Context, plans []*planner.Node, ms []float64, iters int) (time.Duration, error)
	// PredictBatch prices many plans in one vectorized pass; element i
	// does not depend on the rest of the batch, so a single plan is priced
	// as a batch of one. Batching is owned by the model layer — callers
	// hand over the whole slice and never chunk.
	PredictBatch(roots []*planner.Node) []float64
	// PredictFeaturizedBatch is PredictBatch over plans whose per-node
	// feature vectors were computed earlier; element i is bit-identical to
	// PredictBatch of fps[i].Root. It remains for benchmark/'s leaf
	// replay, which caches featurized plans, until ROADMAP 1(e).
	PredictFeaturizedBatch(fps []*encoding.FeaturizedPlan) []float64
	SetFeaturizer(f *encoding.Featurizer)
}

// SnapshotMode selects how labeling queries for the feature snapshot are
// produced.
type SnapshotMode string

// Snapshot modes.
const (
	// FSO labels with instantiations of the original workload templates.
	FSO SnapshotMode = "fso"
	// FST labels with Algorithm 1's simplified templates.
	FST SnapshotMode = "fst"
)

// ReductionMethod selects the feature-reduction algorithm.
type ReductionMethod string

// Reduction methods (Figure 6's ablation arms).
const (
	ReduceNone   ReductionMethod = "none"
	ReduceFR     ReductionMethod = "fr"     // difference propagation
	ReduceGD     ReductionMethod = "gd"     // gradient
	ReduceGreedy ReductionMethod = "greedy" // Algorithm 2
)

// Config parameterizes one pipeline run.
type Config struct {
	Model         string          // "qppnet" or "mscn"
	UseSnapshot   bool            // attach the feature snapshot block
	SnapshotMode  SnapshotMode    // FSO or FST (when UseSnapshot)
	TemplateScale int             // Algorithm 1 scale N (FST)
	FSOPerEnv     int             // labeling queries per env (FSO)
	Reduction     ReductionMethod // feature reduction method
	NumReferences int             // |R| for difference propagation
	TrainIters    int             // model training iterations
	ProbeEpochs   int             // probe-model epochs for reduction
	ProbeSamples  int             // operator-sample cap for reduction
	Seed          int64
}

// DefaultConfig returns the configuration used by the headline
// experiments: FST snapshot at scale 2, FR reduction with 250 references.
func DefaultConfig(model string) Config {
	return Config{
		Model:         model,
		UseSnapshot:   true,
		SnapshotMode:  FST,
		TemplateScale: 2,
		FSOPerEnv:     44,
		Reduction:     ReduceFR,
		NumReferences: 250,
		TrainIters:    400,
		ProbeEpochs:   30,
		ProbeSamples:  2000,
		Seed:          1,
	}
}

// Features is QCFE's feature engineering fitted once: the featurizer
// (encoder, per-environment snapshots, reduction mask) plus what fitting
// it cost. Nothing writes to it after fitting, so one Features may train
// any number of models, concurrently too.
type Features struct {
	F             *encoding.Featurizer
	SnapshotMs    float64       // simulated collection cost of the snapshots
	ReductionTime time.Duration // wall time of the reduction step
}

// ReductionRatio is the fraction of raw dimensions the mask prunes (0
// without a mask or a featurizer).
func (ft Features) ReductionRatio() float64 {
	if ft.F == nil {
		return 0
	}
	return featred.ReductionRatio(ft.F.Mask)
}

// Result is one trained model and the Features it was trained on.
type Result struct {
	Model Estimator
	Features
	TrainTime time.Duration
}

// BuildSnapshotsCtx fits one feature snapshot per environment using the
// configured labeling mode, returning the snapshots plus total simulated
// collection cost. Environments are labeled concurrently on the worker
// pool; each environment parses its own copy of the original templates
// (query resolution mutates the AST in place, so parsed queries cannot be
// shared across goroutines), and the fan-in sums collection cost in
// environment order so the result is identical at any worker count. The
// pool stops claiming environments once ctx is cancelled, and each
// environment's labeling run checks ctx between queries. The snapshots
// are keyed by environment ID, so two environments with one ID are
// rejected with a *dbenv.DuplicateIDError.
func BuildSnapshotsCtx(ctx context.Context, ds *datagen.Dataset, envs []*dbenv.Environment, cfg Config) (map[int]*snapshot.Snapshot, float64, error) {
	if cfg.SnapshotMode != FST && cfg.SnapshotMode != FSO {
		return nil, 0, fmt.Errorf("core: unknown snapshot mode %q", cfg.SnapshotMode)
	}
	if err := dbenv.CheckDistinctIDs(envs); err != nil {
		return nil, 0, fmt.Errorf("core: %w", err)
	}
	results, err := parallel.MapCtx(ctx, len(envs), 0, func(i int) (*snapshot.BuildResult, error) {
		env := envs[i]
		b := snapshot.NewBuilder(ds, env)
		var res *snapshot.BuildResult
		var err error
		switch cfg.SnapshotMode {
		case FST:
			var originals []*sqlparse.Query
			originals, err = workload.OriginalQueries(ds, cfg.Seed)
			if err != nil {
				return nil, err
			}
			res, err = b.FromTemplatesCtx(ctx, originals, cfg.TemplateScale, cfg.Seed+int64(env.ID))
		case FSO:
			gen := workload.NewGenerator(ds, cfg.Seed+int64(env.ID)*131)
			var sqls []string
			sqls, err = gen.Generate(workload.TemplatesFor(ds.Name), cfg.FSOPerEnv)
			if err != nil {
				return nil, err
			}
			res, err = b.FromQueriesCtx(ctx, sqls)
		}
		if err != nil {
			return nil, fmt.Errorf("core: snapshot for env %d: %w", env.ID, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, 0, err
	}
	snaps := make(map[int]*snapshot.Snapshot, len(envs))
	var totalMs float64
	for i, env := range envs {
		snaps[env.ID] = results[i].Snapshot
		totalMs += results[i].CollectionMs
	}
	return snaps, totalMs, nil
}

// OperatorDataset flattens labeled plans into the operator-level dataset
// (x = raw node features, y = log-scaled node ms) that feature reduction
// probes.
func OperatorDataset(f *encoding.Featurizer, samples []workload.Sample) *featred.Dataset {
	d := &featred.Dataset{Names: f.Names()}
	for _, s := range samples {
		s.Plan.Walk(func(n *planner.Node) {
			d.X = append(d.X, f.Raw(n))
			d.Y = append(d.Y, metrics.LogMs(n.ActualMs))
		})
	}
	return d
}

// Reduce runs the configured reduction method over the operator dataset
// and returns the keep-mask (nil when reduction is disabled).
func Reduce(f *encoding.Featurizer, train []workload.Sample, cfg Config) ([]bool, time.Duration, error) {
	if cfg.Reduction == ReduceNone || cfg.Reduction == "" {
		return nil, 0, nil
	}
	if cfg.Reduction == ReduceFR && cfg.NumReferences < 1 {
		return nil, 0, fmt.Errorf("core: difference-propagation reduction needs at least one reference, got NumReferences = %d", cfg.NumReferences)
	}
	start := time.Now()
	d := OperatorDataset(f, train).Subsample(cfg.ProbeSamples, cfg.Seed)
	probe := featred.TrainProbe(d, 32, cfg.ProbeEpochs, cfg.Seed)
	var mask []bool
	switch cfg.Reduction {
	case ReduceFR:
		mask = featred.MaskFromScores(featred.DiffPropScores(probe, d.X, cfg.NumReferences, cfg.Seed))
	case ReduceGD:
		mask = featred.MaskFromScores(featred.GradientScores(probe, d.X))
	case ReduceGreedy:
		mask = featred.GreedyReduce(probe, d.Subsample(400, cfg.Seed))
	default:
		return nil, 0, fmt.Errorf("core: unknown reduction method %q", cfg.Reduction)
	}
	if err := featred.Validate(mask, d.Dim()); err != nil {
		return nil, 0, err
	}
	return mask, time.Since(start), nil
}

// NewEstimator constructs the configured downstream model: "qppnet",
// "mscn", or "analytic" (the statistics-only PGSQL baseline, which reads
// stats and ignores the featurizer).
func NewEstimator(name string, f *encoding.Featurizer, stats *catalog.Stats, seed int64) (Estimator, error) {
	switch name {
	case "qppnet":
		return qppnet.New(f, seed), nil
	case "mscn":
		return mscn.New(f, seed), nil
	case "analytic":
		return NewAnalytic(stats), nil
	}
	return nil, fmt.Errorf("core: unknown model %q", name)
}

// SnapshotFeaturesCtx fits the snapshot half of the feature engineering:
// an unreduced featurizer over ds's encoding, with one snapshot per
// environment when cfg.UseSnapshot (see BuildSnapshotsCtx).
func SnapshotFeaturesCtx(ctx context.Context, ds *datagen.Dataset, envs []*dbenv.Environment, cfg Config) (Features, error) {
	ft := Features{F: &encoding.Featurizer{Enc: encoding.New(ds.Schema)}}
	if cfg.UseSnapshot {
		snaps, ms, err := BuildSnapshotsCtx(ctx, ds, envs, cfg)
		if err != nil {
			return Features{}, err
		}
		ft.F.Snaps, ft.SnapshotMs = snaps, ms
	}
	return ft, nil
}

// Reduced returns ft with a reduction mask fitted over train by cfg's
// method (see Reduce). The encoder and snapshots are shared, a mask ft
// already has is replaced, and ft itself is left as it was.
func (ft Features) Reduced(train []workload.Sample, cfg Config) (Features, error) {
	f := &encoding.Featurizer{Enc: ft.F.Enc, Snaps: ft.F.Snaps}
	mask, rt, err := Reduce(f, train, cfg)
	if err != nil {
		return Features{}, err
	}
	f.Mask = mask
	return Features{F: f, SnapshotMs: ft.SnapshotMs, ReductionTime: rt}, nil
}

// ForEnvCtx refits ft's snapshot block in one new environment (§V-E): the
// result keeps ft's encoder and mask over a snapshot fitted in env alone,
// so a model trained on ft can move onto it (Transfer) and a fresh model
// sees the same feature space. Its SnapshotMs is the new snapshot's cost.
// Without a snapshot block there is nothing to refit.
func (ft Features) ForEnvCtx(ctx context.Context, ds *datagen.Dataset, env *dbenv.Environment, cfg Config) (Features, error) {
	if ft.F == nil || ft.F.Snaps == nil {
		return Features{F: ft.F}, nil
	}
	snaps, ms, err := BuildSnapshotsCtx(ctx, ds, []*dbenv.Environment{env}, cfg)
	if err != nil {
		return Features{}, err
	}
	return Features{F: &encoding.Featurizer{Enc: ft.F.Enc, Snaps: snaps, Mask: ft.F.Mask}, SnapshotMs: ms}, nil
}

// FitFeaturesCtx fits QCFE's feature engineering: snapshots over envs,
// then a reduction mask over train. envs must cover every EnvID appearing
// in the samples; ctx is checked inside the snapshot-labeling pool.
func FitFeaturesCtx(ctx context.Context, ds *datagen.Dataset, envs []*dbenv.Environment, train []workload.Sample, cfg Config) (Features, error) {
	if len(train) == 0 {
		return Features{}, errNoSamples
	}
	ft, err := SnapshotFeaturesCtx(ctx, ds, envs, cfg)
	if err != nil {
		return Features{}, err
	}
	return ft.Reduced(train, cfg)
}

var errNoSamples = fmt.Errorf("core: Fit requires a non-empty training set (got 0 samples); collect a workload first")

// TrainCtx builds cfg.Model over ft and trains it on train. ft is only
// read. ctx is checked between training minibatches; a cancelled run
// returns ctx's error and no Result, so partial training state never
// escapes.
func TrainCtx(ctx context.Context, ds *datagen.Dataset, ft Features, train []workload.Sample, cfg Config) (*Result, error) {
	if len(train) == 0 {
		return nil, errNoSamples
	}
	model, err := NewEstimator(cfg.Model, ft.F, ds.Stats, cfg.Seed)
	if err != nil {
		return nil, err
	}
	plans, ms := workload.PlansAndLabels(train)
	trainTime, err := model.TrainCtx(ctx, plans, ms, cfg.TrainIters)
	if err != nil {
		return nil, fmt.Errorf("core: training cancelled after %v: %w", trainTime, err)
	}
	return &Result{Model: model, Features: ft, TrainTime: trainTime}, nil
}

// RunCtx executes the full QCFE pipeline: FitFeaturesCtx, then TrainCtx.
// ctx is checked inside the snapshot-labeling pool and between training
// minibatches.
func RunCtx(ctx context.Context, ds *datagen.Dataset, envs []*dbenv.Environment, train []workload.Sample, cfg Config) (*Result, error) {
	ft, err := FitFeaturesCtx(ctx, ds, envs, train, cfg)
	if err != nil {
		return nil, err
	}
	return TrainCtx(ctx, ds, ft, train, cfg)
}

// Evaluate computes the full metric summary of a model on test samples.
// Predictions run through the model's batched inference path, which is
// bit-identical to pricing each sample alone.
func Evaluate(m Estimator, test []workload.Sample) metrics.Summary {
	plans, actual := workload.PlansAndLabels(test)
	return metrics.Summarize(actual, m.PredictBatch(plans))
}

// QErrors returns the per-query q-errors of a model on test samples (for
// the variance box plots of Figure 5), predicting batched.
func QErrors(m Estimator, test []workload.Sample) []float64 {
	plans, actual := workload.PlansAndLabels(test)
	return metrics.QErrors(actual, m.PredictBatch(plans))
}
