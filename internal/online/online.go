// Package online is the drift-monitored adaptation loop that keeps a
// served cost estimator fresh under shifting traffic. It composes three
// primitives the repository already guarantees:
//
//   - the labeling path (engine/workload): any served query can be
//     replayed through the execution engine to obtain an opportunistic
//     ground-truth latency label, deterministically;
//   - windowed retraining (qcfe.AdaptCtx, through core.Transfer): a copy
//     of the serving model continues training on a sliding window of
//     recent labeled queries, off the request path;
//   - the atomic hot swap (serve.Server.SwapEstimator + the query
//     cache's generation stamping): the adapted model is installed with
//     one pointer store; in-flight requests finish on the old model, new
//     requests see the new one, and the new artifact generation makes
//     every cached entry of the old model logically invisible in the
//     same instant.
//
// The Adapter sits between them as a serve.Monitor: the server reports
// every served estimate (Observe) and every client-supplied ground
// truth (ObserveLabeled, the /shadow endpoint); the adapter samples
// them into a bounded queue, labels them on its own goroutine, tracks
// the rolling median q-error of served predictions against labels, and
// — when the median degrades past the drift threshold — retrains on
// the window and swaps. Everything on the request path is an atomic
// increment plus at most one non-blocking channel send; when the queue
// is full, observations are dropped, never blocked on ("opportunistic"
// is load-shedding by design).
package online

import (
	"context"
	"sync"
	"sync/atomic"

	qcfe "repro"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/workload"
)

// Options configures the adaptation loop.
type Options struct {
	// Window is the sliding-window capacity: how many recent labeled
	// samples are retained for retraining and drift scoring (default
	// 256). Drift can trigger a retrain only once min(32, Window) of
	// them are scored — a median of three samples would thrash — and,
	// after a swap, only once as many more have been scored against the
	// new model, so one drifted window cannot cause back-to-back
	// retrains.
	Window int
	// DriftThreshold is the rolling median q-error above which the
	// model counts as drifted (default 2.0; q-error 1.0 is a perfect
	// prediction).
	DriftThreshold float64
	// RetrainIters is the training-iteration budget of one adaptation
	// (default 60).
	RetrainIters int
	// LabelEvery samples unlabeled observations: every Nth served
	// estimate is replayed for a ground-truth label (default 8; 1
	// labels everything). Client-labeled observations (ObserveLabeled)
	// are never sampled away.
	LabelEvery int
}

// queueDepth bounds the pending-observation buffer between the request
// path and the labeling goroutine; overflow is dropped and counted.
const queueDepth = 256

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 256
	}
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = 2.0
	}
	if o.RetrainIters <= 0 {
		o.RetrainIters = 60
	}
	if o.LabelEvery <= 0 {
		o.LabelEvery = 8
	}
	return o
}

// Swapper installs a freshly adapted estimator into the serving layer —
// typically a closure over serve.Server.SwapEstimator. It is called on
// the adapter's goroutine, after the query cache has already been moved
// to the new estimator's generation.
type Swapper func(*qcfe.CostEstimator)

// Stats is the drift block reported under /stats.
type Stats struct {
	// Observed counts every estimate reported to the monitor.
	Observed int64 `json:"observed"`
	// Sampled counts observations that entered the labeling queue.
	Sampled int64 `json:"sampled"`
	// Dropped counts observations shed because the queue was full.
	Dropped int64 `json:"dropped"`
	// Labeled counts samples that made it into the sliding window.
	Labeled int64 `json:"labeled"`
	// LabelErrors counts replay failures (e.g. a query that no longer
	// plans); the observation is discarded.
	LabelErrors int64 `json:"label_errors"`
	// Window and WindowFill are the configured capacity and current
	// occupancy of the sliding window.
	Window     int `json:"window"`
	WindowFill int `json:"window_fill"`
	// MedianQError is the rolling median q-error of served predictions
	// against ground-truth labels (0 until anything is labeled).
	MedianQError float64 `json:"median_q_error"`
	// DriftThreshold echoes the configured trigger.
	DriftThreshold float64 `json:"drift_threshold"`
	// Retrains counts completed incremental retrains; RetrainErrors
	// counts attempts that failed (the old model keeps serving).
	Retrains      int64 `json:"retrains"`
	RetrainErrors int64 `json:"retrain_errors"`
	// Swaps counts estimators installed into the serving layer.
	Swaps int64 `json:"swaps"`
}

// WriteMetrics renders the drift block for a Prometheus scrape
// (obs.MetricsWriter). serve's /metrics discovers it through the
// interface on the DriftStats() value, so this package stays the only
// one that knows the field meanings.
func (st Stats) WriteMetrics(g *obs.Gatherer, extra ...obs.Label) {
	g.Counter("qcfe_drift_observed_total", "Estimates reported to the drift monitor.", st.Observed, extra...)
	g.Counter("qcfe_drift_sampled_total", "Observations that entered the labeling queue.", st.Sampled, extra...)
	g.Counter("qcfe_drift_dropped_total", "Observations shed because the labeling queue was full.", st.Dropped, extra...)
	g.Counter("qcfe_drift_labeled_total", "Samples labeled into the sliding window.", st.Labeled, extra...)
	g.Counter("qcfe_drift_label_errors_total", "Label replay failures.", st.LabelErrors, extra...)
	g.Gauge("qcfe_drift_window_fill", "Current sliding-window occupancy.", float64(st.WindowFill), extra...)
	g.Gauge("qcfe_drift_median_q_error", "Rolling median q-error of served predictions.", st.MedianQError, extra...)
	g.Counter("qcfe_drift_retrains_total", "Completed incremental retrains.", st.Retrains, extra...)
	g.Counter("qcfe_drift_retrain_errors_total", "Retrain attempts that failed.", st.RetrainErrors, extra...)
	g.Counter("qcfe_drift_swaps_total", "Adapted estimators installed into serving.", st.Swaps, extra...)
}

// observation is one served estimate in flight to the labeling loop.
// producer identifies the estimator that computed the prediction (the
// serving layer passes its own snapshot): an observation whose
// producer is no longer the current model carries a stale prediction,
// so its q-error must not score the new model — though its label
// remains valid ground truth for the window.
type observation struct {
	env       *qcfe.Environment
	sql       string
	predicted float64
	actual    float64 // ground truth when hasActual; else replayed
	hasActual bool
	producer  any
}

// Adapter is the drift monitor + retraining loop. Construct with New,
// attach to a server with serve.Server.SetMonitor, and run the labeling
// loop with Run. The Observe* methods are safe for concurrent use; the
// window, drift scoring, and retraining are owned by the Run goroutine.
type Adapter struct {
	opts Options
	swap Swapper
	obs  chan observation

	observed atomic.Int64
	sampled  atomic.Int64
	dropped  atomic.Int64

	mu          sync.Mutex
	cur         *qcfe.CostEstimator
	window      []workload.Sample // ring, insertion order
	windowNext  int               // next ring slot to overwrite
	qerrs       []float64         // rolling q-error ring
	qerrNext    int
	labeled     int64
	labelErrors int64
	retrains    int64
	retrainErrs int64
	swaps       int64
	sinceSwap   int
}

// New builds an adapter over the estimator currently serving. swap is
// invoked with every adapted estimator after the cache handoff; nil
// means "retrain but install nowhere" (useful for tests and shadow
// deployments).
func New(est *qcfe.CostEstimator, opts Options, swap Swapper) *Adapter {
	o := opts.withDefaults()
	return &Adapter{
		opts:   o,
		swap:   swap,
		obs:    make(chan observation, queueDepth),
		cur:    est,
		window: make([]workload.Sample, 0, o.Window),
		qerrs:  make([]float64, 0, o.Window),
	}
}

// Current returns the estimator the adapter considers live (the latest
// adapted one, or the initial estimator before any swap).
func (a *Adapter) Current() *qcfe.CostEstimator {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}

// Observe implements serve.Monitor: every LabelEvery-th served
// estimate is queued for opportunistic labeling. Constant-time,
// non-blocking, drop-on-overflow.
func (a *Adapter) Observe(env *qcfe.Environment, sql string, predictedMs float64, producer any) {
	n := a.observed.Add(1)
	if a.opts.LabelEvery > 1 && n%int64(a.opts.LabelEvery) != 0 {
		return
	}
	a.enqueue(observation{env: env, sql: sql, predicted: predictedMs, producer: producer})
}

// ObserveLabeled implements serve.Monitor: a client-supplied
// ground-truth label (the /shadow endpoint). Never sampled away —
// real labels are the scarcest signal — but still drop-on-overflow; the
// return value reports whether the label was actually accepted, and
// /shadow surfaces it as "recorded".
func (a *Adapter) ObserveLabeled(env *qcfe.Environment, sql string, predictedMs, actualMs float64, producer any) bool {
	a.observed.Add(1)
	return a.enqueue(observation{env: env, sql: sql, predicted: predictedMs, actual: actualMs, hasActual: true, producer: producer})
}

func (a *Adapter) enqueue(o observation) bool {
	select {
	case a.obs <- o:
		a.sampled.Add(1)
		return true
	default:
		a.dropped.Add(1)
		return false
	}
}

// DriftStats implements serve.Monitor.
func (a *Adapter) DriftStats() any { return a.Stats() }

// Stats snapshots the adapter's counters.
func (a *Adapter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Observed:       a.observed.Load(),
		Sampled:        a.sampled.Load(),
		Dropped:        a.dropped.Load(),
		Labeled:        a.labeled,
		LabelErrors:    a.labelErrors,
		Window:         a.opts.Window,
		WindowFill:     len(a.window),
		MedianQError:   a.medianLocked(),
		DriftThreshold: a.opts.DriftThreshold,
		Retrains:       a.retrains,
		RetrainErrors:  a.retrainErrs,
		Swaps:          a.swaps,
	}
}

// Run drains the observation queue until ctx is cancelled: label,
// score, and — when the rolling median q-error crosses the threshold —
// retrain and swap. It is the adapter's only goroutine; call it exactly
// once, typically via `go ad.Run(ctx)`. Retraining happens inline on
// this goroutine (never on a request path), so at most one retrain is
// in flight at a time and the swap order is the retrain order.
func (a *Adapter) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case o := <-a.obs:
			a.process(ctx, o)
		}
	}
}

// process labels one observation, folds it into the window, and
// triggers an adaptation when the drift signal fires.
func (a *Adapter) process(ctx context.Context, o observation) {
	est := a.Current()
	// A client-labeled observation already carries its ground truth:
	// planning alone yields the training sample. Unlabeled observations
	// replay through the execution engine — the same labeling path that
	// produced the training pool — for the latency label itself;
	// bench.Execute constructs a fresh executor per call, so the replay
	// label for a given (environment, SQL) pair is deterministic.
	var plan *planner.Node
	actual := o.actual
	var err error
	if o.hasActual {
		plan, err = est.Benchmark().Plan(o.env, o.sql)
	} else {
		var res *qcfe.QueryResult
		res, err = est.Benchmark().Execute(o.env, o.sql)
		if err == nil {
			plan, actual = res.Plan, res.Ms
		}
	}
	if err != nil {
		a.mu.Lock()
		a.labelErrors++
		a.mu.Unlock()
		return
	}

	a.mu.Lock()
	s := workload.Sample{SQL: o.sql, Plan: plan, Ms: actual, EnvID: o.env.ID}
	if len(a.window) < a.opts.Window {
		a.window = append(a.window, s)
	} else {
		a.window[a.windowNext] = s
		a.windowNext = (a.windowNext + 1) % a.opts.Window
	}
	// The label is valid ground truth about the workload regardless of
	// which model served it, so the window always takes the sample —
	// but the q-error scores a *prediction*, and an observation whose
	// producer is no longer the current model scored a swapped-out
	// estimator: letting it into the ring would let a drifted
	// predecessor's errors re-trigger a retrain before the new model
	// produced a single scored estimate. a.cur is the authority; the
	// comparison is exact pointer identity.
	if o.producer == any(a.cur) {
		if len(a.qerrs) < cap(a.qerrs) {
			a.qerrs = append(a.qerrs, metrics.QError(actual, o.predicted))
		} else {
			a.qerrs[a.qerrNext] = metrics.QError(actual, o.predicted)
			a.qerrNext = (a.qerrNext + 1) % cap(a.qerrs)
		}
		a.sinceSwap++
	}
	a.labeled++
	minLabeled := min(32, a.opts.Window)
	drifted := len(a.qerrs) >= minLabeled &&
		a.sinceSwap >= minLabeled &&
		a.medianLocked() > a.opts.DriftThreshold
	a.mu.Unlock()

	if drifted {
		// A failed retrain is counted in RetrainErrors; the current
		// model keeps serving and the window keeps accumulating.
		_ = a.adapt(ctx)
	}
}

// adapt retrains a copy of the current estimator on the window and hot
// swaps it in: cache handoff first (qcfe.SwapEstimator moves the query
// cache to the adapted generation), then the serving swap. On a failed
// or cancelled retrain, the current estimator keeps serving and the
// window keeps accumulating.
func (a *Adapter) adapt(ctx context.Context) error {
	a.mu.Lock()
	est := a.cur
	window := append([]workload.Sample(nil), a.window...)
	a.mu.Unlock()

	next, err := est.AdaptCtx(ctx, window, a.opts.RetrainIters)
	if err != nil {
		a.mu.Lock()
		a.retrainErrs++
		a.mu.Unlock()
		return err
	}
	qcfe.SwapEstimator(est, next)
	if a.swap != nil {
		a.swap(next)
	}
	a.mu.Lock()
	a.cur = next
	a.retrains++
	a.swaps++
	a.sinceSwap = 0
	// The q-error ring scored the old model; the new one starts with a
	// clean drift signal (the sample window is kept — it is ground
	// truth about the workload, not about any particular model).
	a.qerrs = a.qerrs[:0]
	a.qerrNext = 0
	a.mu.Unlock()
	return nil
}

// medianLocked computes the rolling median q-error; callers hold a.mu.
// (Percentile copies its input before sorting, so the ring is safe.)
func (a *Adapter) medianLocked() float64 {
	return metrics.Percentile(a.qerrs, 50)
}
