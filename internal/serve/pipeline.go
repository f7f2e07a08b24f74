// Pipelined miss path: the serial gather-then-flush loop in serve.go
// prices one micro-batch at a time — while it parses/plans/featurizes/
// predicts, nothing queued behind it starts, so the planner cores idle
// during inference and the NN kernel idles during planning. With
// Options.PipelineDepth > 0 the batcher instead hands each gathered
// batch to a pipeline of bounded concurrent stages connected by small
// buffered channels (Volcano-style exchange operators):
//
//	gather ──featCh──▶ featurize ──predCh──▶ predict ──replyCh──▶ reply
//	(1 goroutine)      (FeaturizeWorkers)    (PredictWorkers)     (1 goroutine)
//
// Each channel's capacity is PipelineDepth, so at most
// depth + workers batches are in flight per stage — bounded memory,
// backpressure when the NN kernel falls behind. The batcher returns to
// the queue the instant a batch is on featCh, so batch k+1 featurizes
// while batch k predicts.
//
// Correctness mirrors the serial path exactly:
//
//   - One estimator snapshot per micro-batch, taken at featurize pickup
//     and carried through the unit: every reply is computed wholly by
//     one model even when a hot swap lands mid-pipeline. The snapshot's
//     FeaturizeSQLBatchCtx pins (cache, generation), so the back half
//     writes predictions under the pinned generation — invisible after
//     a swap, exactly as in the fused call.
//   - The two halves compose to qcfe.EstimateSQLBatchCtx by
//     construction, so pipelined replies are bit-identical to serial
//     ones, cache on or off.
//   - Shutdown drains: the gather loop exits on ctx.Done, then each
//     stage channel is closed in order and its workers awaited, so
//     in-flight batches complete (the back half is pure compute);
//     batches still in the front half fail fast with the context's own
//     error (never the O(n) solo-fallback storm); only then are
//     still-queued requests failed.
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	qcfe "repro"
)

// stagedEstimator is the optional split-batch API the pipeline prefers.
// *qcfe.CostEstimator implements it; estimators without it (test fakes)
// run their fused EstimateSQLBatchCtx in the predict stage instead —
// same results, less overlap.
type stagedEstimator interface {
	FeaturizeSQLBatchCtx(ctx context.Context, env *qcfe.Environment, sqls []string) (*qcfe.FeaturizedBatch, error)
	PredictFeaturized(fb *qcfe.FeaturizedBatch) []float64
}

// pipeUnit is one environment group of a gathered micro-batch moving
// through the exchange channels. Units are pooled; the reply stage
// resets and recycles them after the last reply is sent.
type pipeUnit struct {
	est    Estimator
	staged stagedEstimator // nil when est lacks the split API
	env    *qcfe.Environment
	group  []*request
	sqls   []string
	fb     *qcfe.FeaturizedBatch // front-half output (staged estimators only)
	err    error                 // front-half failure
	ms     []float64
	errs   []error   // per-request errors; empty when the whole group succeeded
	start  time.Time // featurize-stage pickup; the reply stage closes histFlush from it
}

var unitPool = sync.Pool{New: func() any { return new(pipeUnit) }}

func getUnit() *pipeUnit { return unitPool.Get().(*pipeUnit) }

func putUnit(u *pipeUnit) {
	for i := range u.group {
		u.group[i] = nil
	}
	u.group = u.group[:0]
	for i := range u.sqls {
		u.sqls[i] = ""
	}
	u.sqls = u.sqls[:0]
	u.ms = u.ms[:0]
	u.errs = u.errs[:0]
	u.est, u.staged, u.env, u.fb, u.err = nil, nil, nil, nil, nil
	unitPool.Put(u)
}

// runPipelined is Run's staged mode. Stage goroutines are owned by this
// call: it starts them, feeds them, and on shutdown closes each exchange
// channel in pipeline order, waiting out every stage before failing the
// requests still in the queue.
func (s *Server) runPipelined(ctx context.Context) error {
	o := s.opts
	featCh := make(chan []*request, o.PipelineDepth)
	predCh := make(chan *pipeUnit, o.PipelineDepth)
	replyCh := make(chan *pipeUnit, o.PipelineDepth)
	var fwg, pwg, rwg sync.WaitGroup
	for i := 0; i < o.FeaturizeWorkers; i++ {
		fwg.Add(1)
		go s.featurizeStage(ctx, &fwg, featCh, predCh)
	}
	for i := 0; i < o.PredictWorkers; i++ {
		pwg.Add(1)
		go s.predictStage(ctx, &pwg, predCh, replyCh)
	}
	rwg.Add(1)
	go s.replyStage(&rwg, replyCh)

	err := s.gatherLoop(ctx, featCh)
	// Drain in pipeline order. Consumers outlive their producers at
	// every stage, so no stage can block forever on a full channel.
	close(featCh)
	fwg.Wait()
	close(predCh)
	pwg.Wait()
	close(replyCh)
	rwg.Wait()
	s.drainFailed(err)
	return err
}

// gatherLoop is the pipelined batcher: gather a micro-batch, hand it to
// the featurize stage, immediately gather the next.
func (s *Server) gatherLoop(ctx context.Context, featCh chan<- []*request) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case first := <-s.queue:
			batch := s.gather(first)
			select {
			case featCh <- batch:
			case <-ctx.Done():
				// Shutdown raced the handoff; fail the gathered batch
				// fast rather than feeding stages that would only cancel.
				err := ctx.Err()
				for _, r := range batch {
					s.errors.Add(1)
					r.reply <- result{err: fmt.Errorf("serve: shutting down: %w", err)}
				}
				putBatch(batch)
				return err
			}
		}
	}
}

// featurizeStage turns gathered batches into priced-or-ready units: it
// snapshots the estimator (once per micro-batch — the snapshot every
// reply in the batch is computed by), ends each request's queue wait,
// groups by environment, and runs the front half (probe + template- and
// feature-tier-aware parse/plan/featurize) for staged estimators.
func (s *Server) featurizeStage(ctx context.Context, wg *sync.WaitGroup, in <-chan []*request, out chan<- *pipeUnit) {
	defer wg.Done()
	co := newCoalescer() // per-worker grouping scratch
	for batch := range in {
		start := time.Now()
		est := s.Estimator()
		staged, _ := est.(stagedEstimator)
		s.flushes.Add(1)
		if len(batch) > 1 {
			s.coalesced.Add(int64(len(batch)))
		}
		// Queue wait ends at stage pickup, exactly like the serial flush.
		// Spans must be recorded before a request's reply is sent: the
		// HTTP edge finishes the trace the moment the reply arrives.
		for _, r := range batch {
			s.histQueueWait.RecordSince(r.enq)
			r.tr.AddSpan("queue_wait", "", r.enq)
		}
		co.groupBatch(batch)
		for _, id := range co.order {
			grp := co.groups[id]
			u := getUnit()
			u.est, u.staged = est, staged
			u.env = grp[0].env
			u.group = append(u.group, grp...)
			for _, r := range grp {
				u.sqls = append(u.sqls, r.sql)
			}
			u.start = start
			if staged != nil {
				fstart := time.Now()
				u.fb, u.err = staged.FeaturizeSQLBatchCtx(ctx, u.env, u.sqls)
				s.histStageFeat.RecordSince(fstart)
				for _, r := range grp {
					r.tr.AddSpan("featurize", fmt.Sprintf("batch=%d", len(grp)), fstart)
				}
			}
			out <- u
		}
		co.resetGroups()
		putBatch(batch)
	}
}

// predictStage runs the back half: batched inference + cache write-back
// for staged units, the fused batch call for estimators without the
// split API, and the serial path's exact error discipline — a cancelled
// context fails the group fast with the context's own error, a query
// fault falls back to pricing each request alone.
func (s *Server) predictStage(ctx context.Context, wg *sync.WaitGroup, in <-chan *pipeUnit, out chan<- *pipeUnit) {
	defer wg.Done()
	for u := range in {
		s.priceUnit(ctx, u)
		out <- u
	}
}

func (s *Server) priceUnit(ctx context.Context, u *pipeUnit) {
	pstart := time.Now()
	if u.err == nil {
		if u.fb != nil {
			ms := u.staged.PredictFeaturized(u.fb)
			u.ms = append(u.ms, ms...)
			s.histStagePred.RecordSince(pstart)
			for _, r := range u.group {
				r.tr.AddSpan("predict", fmt.Sprintf("batch=%d", len(u.group)), pstart)
			}
			return
		}
		ms, err := u.est.EstimateSQLBatchCtx(ctx, u.env, u.sqls)
		if err == nil {
			u.ms = append(u.ms, ms...)
			s.histStagePred.RecordSince(pstart)
			for _, r := range u.group {
				r.tr.AddSpan("predict", fmt.Sprintf("batch=%d", len(u.group)), pstart)
			}
			return
		}
		u.err = err
	}
	// Cancellation is shutdown, not a query failure: fail the group fast
	// instead of re-pricing it serially without a context.
	if cerr := ctx.Err(); cerr != nil {
		err := fmt.Errorf("serve: shutting down: %w", cerr)
		for range u.group {
			u.ms = append(u.ms, 0)
			u.errs = append(u.errs, err)
		}
		return
	}
	// Isolate the failure: price each request alone.
	for _, r := range u.group {
		soloStart := time.Now()
		v, rerr := u.est.EstimateSQL(r.env, r.sql)
		r.tr.AddSpan("predict", "solo-fallback", soloStart)
		u.ms = append(u.ms, v)
		u.errs = append(u.errs, rerr)
	}
}

// replyStage delivers results, feeds the drift monitor from the unit's
// pinned estimator snapshot, and recycles the unit. It is a single
// goroutine so monitor observation never runs concurrently with itself
// on the coalescing path, matching the serial batcher.
func (s *Server) replyStage(wg *sync.WaitGroup, in <-chan *pipeUnit) {
	defer wg.Done()
	for u := range in {
		for i, r := range u.group {
			var rerr error
			if len(u.errs) > 0 {
				rerr = u.errs[i]
			}
			if rerr != nil {
				s.errors.Add(1)
			} else {
				s.observe(u.est, r.env, r.sql, u.ms[i])
			}
			r.reply <- result{ms: u.ms[i], err: rerr}
		}
		s.histFlush.RecordSince(u.start)
		putUnit(u)
	}
}
