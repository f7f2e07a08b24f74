// Package mscn reimplements MSCN (Kipf et al., "Learned Cardinalities:
// Estimating Correlated Joins with Deep Learning") extended to cost
// estimation the way the paper's §V-A describes: the output is the query
// cost rather than cardinality, and the per-node features are the same
// fine-grained operator features QPPNet uses.
//
// Architecturally MSCN is a deep-sets model: a shared set network embeds
// every plan node, embeddings are average-pooled, and a merge network maps
// the pooled vector to the predicted log-cost.
//
// Training and inference run vector-at-a-time — a single plan is priced
// as a batch of one: every minibatch or inference chunk gathers its
// plans' node features into one matrix and drives the batched nn kernels,
// which preserve the scalar path's accumulation order. TrainCtx is
// therefore bit-identical to the per-sample reference trainer at any batch
// size, and PredictBatch to the per-plan scalar forward; both oracles live
// in reference_test.go.
package mscn

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/encoding"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/planner"
)

// Hyperparameters following the reference MSCN sizing.
const (
	defaultHidden = 64
	defaultEmbed  = 32
	defaultLR     = 0.001
	batchSize     = 32
)

// Model is the set-based cost estimator.
type Model struct {
	F *encoding.Featurizer

	SetNet *nn.MLP // node features → embedding
	OutNet *nn.MLP // pooled embedding → log cost
	// BatchSize overrides the default minibatch size when positive. The
	// training trajectory is the same at every batch size modulo Adam's
	// step cadence; at any fixed size it is bit-identical to the
	// per-sample reference path.
	BatchSize int
	opt       *nn.Adam
	rng       *rand.Rand
	// seed is the sampler seed the model was built with; Clone seeds the
	// copy's sampler from it, so cloning never draws from rng.
	seed int64
}

// New builds an MSCN model.
func New(f *encoding.Featurizer, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	return &Model{
		F:      f,
		SetNet: nn.NewMLP([]int{f.Dim(), defaultHidden, defaultEmbed}, rng),
		OutNet: nn.NewMLP([]int{defaultEmbed, defaultHidden, 1}, rng),
		opt:    nn.NewAdam(defaultLR),
		rng:    rng,
		seed:   seed,
	}
}

// Name implements the experiment harness's model interface.
func (m *Model) Name() string { return "mscn" }

func (m *Model) batch() int {
	if m.BatchSize > 0 {
		return m.BatchSize
	}
	return batchSize
}

// predictChunkNodes bounds how many node rows one inference batch
// materializes at a time, so pricing an arbitrarily large workload keeps
// bounded memory. Plans are independent, so chunking cannot change
// results.
const predictChunkNodes = 1024

// inferScratch is the transient state of one batched inference call: the
// arena its chunk matrices (gathered node rows included) come from and
// the per-plan node counts. Nothing in it outlives the call — predictions
// are copied into the caller's result slice — so calls recycle it through
// scratchPool instead of building and discarding one each.
type inferScratch struct {
	ar     linalg.Arena
	counts []int
}

var scratchPool = sync.Pool{New: func() any { return new(inferScratch) }}

// release returns the scratch to the pool, unless its arena grew too
// large to keep.
func (sc *inferScratch) release() {
	if sc.ar.Poolable() {
		scratchPool.Put(sc)
	}
}

// PredictBatch estimates every plan's execution time batched: all nodes
// of a chunk of plans go through the set network as a single matrix,
// pooled per plan, and the pooled batch goes through the merge network.
// Output i does not depend on the other plans in the batch: it is
// bit-identical to pricing roots[i] alone, as a batch of one.
func (m *Model) PredictBatch(roots []*planner.Node) []float64 {
	return m.predictChunks(len(roots),
		func(i int) int { return roots[i].CountNodes() },
		func(i int, dst []float64) { m.F.PlanInto(roots[i], dst) })
}

// PredictFeaturizedBatch is PredictBatch over pre-featurized plans
// (core.Estimator): node features come from the given pre-order rows
// instead of the featurizer, and everything downstream —
// chunk boundaries, set-network batching, pooling order — is identical,
// so output i is bit-identical to PredictBatch of fps[i].Root.
func (m *Model) PredictFeaturizedBatch(fps []*encoding.FeaturizedPlan) []float64 {
	return m.predictChunks(len(fps),
		func(i int) int { return fps[i].NumNodes() },
		func(i int, dst []float64) {
			for _, v := range fps[i].Pre {
				dst = dst[copy(dst, v):]
			}
		})
}

// predictChunks is the chunked inference loop over n plans: size gives
// plan i's node count for chunk packing, gather writes plan i's node rows
// (pre-order, Dim wide) into its slice of the chunk matrix.
func (m *Model) predictChunks(n int, size func(int) int, gather func(i int, dst []float64)) []float64 {
	if n == 0 {
		return nil
	}
	res := make([]float64, n)
	sc := scratchPool.Get().(*inferScratch)
	defer sc.release()
	dim := m.F.Dim()
	for start := 0; start < n; {
		sc.ar.Reset()
		counts := sc.counts[:0]
		end, total := start, 0
		for end < n {
			c := size(end)
			if end > start && total+c > predictChunkNodes {
				break
			}
			counts = append(counts, c)
			total += c
			end++
		}
		sc.counts = counts // keep the grown capacity for the next chunk/call
		x := sc.ar.Alloc(total, dim)
		row := 0
		for i := start; i < end; i++ {
			gather(i, x.Data[row*dim:(row+counts[i-start])*dim])
			row += counts[i-start]
		}
		m.predictChunk(&sc.ar, x, counts, res[start:end])
		start = end
	}
	return res
}

// predictChunk prices one gathered chunk: x holds the chunk's node rows
// (plans consecutive, nodes in pre-order), counts the per-plan node
// counts; out receives one prediction per plan.
func (m *Model) predictChunk(ar *linalg.Arena, x *linalg.Matrix, counts []int, out []float64) {
	emb := m.SetNet.PredictBatch(ar, x)
	pooled := poolByPlan(ar, emb, counts)
	y := m.OutNet.PredictBatch(ar, pooled)
	for i := range counts {
		out[i] = metrics.UnlogMs(y.At(i, 0))
	}
}

// poolByPlan average-pools consecutive embedding rows per plan, summing in
// row (pre-order) order — the scalar pooling order.
func poolByPlan(ar *linalg.Arena, emb *linalg.Matrix, counts []int) *linalg.Matrix {
	pooled := ar.AllocZero(len(counts), emb.Cols)
	row := 0
	for s, c := range counts {
		prow := pooled.RowView(s)
		for k := 0; k < c; k++ {
			erow := emb.RowView(row)
			for i, v := range erow {
				prow[i] += v
			}
			row++
		}
		inv := 1 / float64(c)
		for i := range prow {
			prow[i] *= inv
		}
	}
	return pooled
}

// TrainCtx fits the model for the given number of mini-batch iterations
// and returns wall-clock training time. Each iteration draws a minibatch,
// gathers its node features (featurized lazily, once per plan, and cached
// for the duration of the call), and runs one batched forward/backward
// through both networks. The weight trajectory is bit-identical to the
// per-sample reference (reference_test.go) with the same model state and
// iteration count.
//
// ctx is checked at the top of every minibatch iteration — never inside
// one — so cancellation stops training promptly (within one minibatch) and
// the weights are always left in the consistent state of the last
// completed optimizer step.
func (m *Model) TrainCtx(ctx context.Context, plans []*planner.Node, ms []float64, iters int) (time.Duration, error) {
	start := time.Now()
	if len(plans) == 0 {
		return time.Since(start), nil
	}
	layers := nn.LayersOf(m.SetNet, m.OutNet)
	targets := make([]float64, len(ms))
	for i, v := range ms {
		targets[i] = metrics.LogMs(v)
	}
	bs := m.batch()
	feats := make([]*linalg.Matrix, len(plans)) // lazy per-plan node features
	idx := make([]int, bs)
	counts := make([]int, bs)
	ar := &linalg.Arena{} // per-iteration batch matrices, reused across iterations
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return time.Since(start), err
		}
		ar.Reset()
		total := 0
		for b := range idx {
			j := m.rng.Intn(len(plans))
			idx[b] = j
			if feats[j] == nil {
				feats[j] = m.F.PlanMatrix(plans[j])
			}
			counts[b] = feats[j].Rows
			total += feats[j].Rows
		}
		// Gather the minibatch's node features into one matrix, plans in
		// draw order, nodes in pre-order within each plan.
		x := ar.Alloc(total, m.F.Dim())
		row := 0
		for b, j := range idx {
			copy(x.Data[row*x.Cols:], feats[j].Data)
			row += counts[b]
		}
		emb, setCache := m.SetNet.ForwardBatch(ar, x)
		pooled := poolByPlan(ar, emb, counts)
		out, outCache := m.OutNet.ForwardBatch(ar, pooled)
		dOut := ar.Alloc(bs, 1)
		for b := range idx {
			dOut.Data[b] = 2 * (out.At(b, 0) - targets[idx[b]])
		}
		dPooled := m.OutNet.BackwardBatch(ar, outCache, dOut)
		// Spread each plan's pooled gradient across its node rows.
		dEmb := ar.Alloc(total, emb.Cols)
		row = 0
		for b, c := range counts {
			inv := 1 / float64(c)
			prow := dPooled.RowView(b)
			for k := 0; k < c; k++ {
				erow := dEmb.RowView(row)
				for i, v := range prow {
					erow[i] = v * inv
				}
				row++
			}
		}
		// The set network's input gradient has no consumer; skip it.
		m.SetNet.BackwardBatchNoInput(ar, setCache, dEmb)
		m.opt.Step(layers, bs)
	}
	return time.Since(start), nil
}

// Clone deep-copies the model weights. It only reads m: the copy's
// optimizer starts fresh and its sampler from m's construction seed.
func (m *Model) Clone() *Model {
	return &Model{
		F:         m.F,
		SetNet:    m.SetNet.Clone(),
		OutNet:    m.OutNet.Clone(),
		BatchSize: m.BatchSize,
		opt:       nn.NewAdam(defaultLR),
		rng:       rand.New(rand.NewSource(m.seed)),
		seed:      m.seed,
	}
}

// SetFeaturizer swaps the featurizer; dimensions must match.
func (m *Model) SetFeaturizer(f *encoding.Featurizer) {
	if f.Dim() != m.F.Dim() {
		panic("mscn: featurizer dimension mismatch")
	}
	m.F = f
}

// NumParams reports the trainable parameter count.
func (m *Model) NumParams() int { return m.SetNet.NumParams() + m.OutNet.NumParams() }
