// Package qppnet reimplements QPPNet (Marcus & Papaemmanouil, "Plan-
// Structured Deep Neural Network Models for Query Performance Prediction"),
// the plan-structured estimator the paper integrates QCFE into as
// QCFE(qpp).
//
// One MLP exists per physical operator type. A node's network receives the
// node's feature vector concatenated with the element-wise sum of its
// children's output vectors; the first element of the root's output vector
// is the predicted log-cost. Training backpropagates through the whole
// tree, so operator networks are shared across every plan they appear in.
//
// Batched execution processes plan trees level by level (leaves first):
// all nodes of one operator type at one level across the whole batch run
// through their shared subnetwork as a single matrix. The backward pass
// stays per-sample tree recursion over row views of the batched caches —
// that is what keeps gradient accumulation in the scalar path's order, so
// Train is bit-identical to the per-sample reference trainer at any batch
// size, and PredictBatch — which prices a single plan as a batch of one —
// to the per-plan scalar forward; both oracles live in reference_test.go.
package qppnet

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

// Hyperparameters mirroring the open-source QPPNet configuration, scaled
// to this repo's feature sizes.
const (
	defaultHidden = 32
	defaultOutVec = 16
	defaultLR     = 0.001
	batchSize     = 16
)

// Model is a plan-structured cost estimator.
type Model struct {
	F      *encoding.Featurizer
	Hidden int
	OutVec int

	Nets map[planner.OpType]*nn.MLP
	// BatchSize overrides the default minibatch size when positive; at any
	// fixed size the trajectory is bit-identical to the per-sample
	// reference path.
	BatchSize int
	opt       *nn.Adam
	rng       *rand.Rand
	// seed is the sampler seed the model was built with; Clone seeds the
	// copy's sampler from it, so cloning never draws from rng.
	seed int64
}

// New builds a QPPNet with one subnetwork per operator type.
func New(f *encoding.Featurizer, seed int64) *Model {
	m := &Model{
		F:      f,
		Hidden: defaultHidden,
		OutVec: defaultOutVec,
		Nets:   make(map[planner.OpType]*nn.MLP),
		opt:    nn.NewAdam(defaultLR),
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
	}
	in := f.Dim() + m.OutVec
	for _, op := range planner.AllOpTypes() {
		m.Nets[op] = nn.NewMLP([]int{in, m.Hidden, m.Hidden, m.OutVec}, m.rng)
	}
	return m
}

// Name implements the experiment harness's model interface.
func (m *Model) Name() string { return "qppnet" }

func (m *Model) batch() int {
	if m.BatchSize > 0 {
		return m.BatchSize
	}
	return batchSize
}

// treeCache stores one node's place in a batched forward pass for
// backprop: the level batch its node ran in (bc) and its row there.
type treeCache struct {
	op       planner.OpType
	bc       *nn.BatchCache
	row      int
	out      []float64
	children []*treeCache
}

// backward is the training backward over a batched forward's caches: the
// recursion and the gradient accumulation order are exactly the reference
// path's (samples one at a time, root-down pre-order), but each node only
// produces the child-sum suffix of its input gradient (nothing reads the
// feature block's gradient, and leaves read nothing at all). Parameter
// gradients are bit-identical to backwardReference (reference_test.go).
func (m *Model) backward(ar *linalg.Arena, tc *treeCache, dOut []float64) {
	tail := 0
	if len(tc.children) > 0 {
		tail = m.OutVec
	}
	dChild := m.Nets[tc.op].BackwardTailRow(ar, tc.bc, tc.row, dOut, tail)
	for _, c := range tc.children {
		m.backward(ar, c, dChild)
	}
}

// bNode is one plan node scheduled for batched execution: its skeleton
// cache, its featurization, and its height above the leaves.
type bNode struct {
	tc    *treeCache
	feat  []float64
	level int
}

// planSkeleton is one plan's reusable batched-execution state: the
// treeCache tree plus its flat post-order node list. The tree structure
// and features are static across a training run; forwardBatch overwrites
// each node's (out, bc, row) every time the plan appears in a minibatch,
// so one skeleton is reusable across iterations — but a single batch
// needs one instance per *occurrence* of a plan (duplicate draws get a
// fresh skeleton, or the second forward would clobber the first's
// outputs before backward reads them).
type planSkeleton struct {
	root     *treeCache
	flat     []bNode
	maxLevel int
}

// buildSkeleton builds the treeCache skeleton for one plan, consuming
// feats with cursor in post-order, and appends every node to flat. It
// returns the root cache and its level (leaves are level 0).
func buildSkeleton(n *planner.Node, feats [][]float64, cursor *int, flat *[]bNode) (*treeCache, int) {
	tc := &treeCache{op: n.Op}
	level := 0
	for _, c := range n.Children {
		cc, cl := buildSkeleton(c, feats, cursor, flat)
		tc.children = append(tc.children, cc)
		if cl+1 > level {
			level = cl + 1
		}
	}
	feat := feats[*cursor]
	*cursor++
	*flat = append(*flat, bNode{tc: tc, feat: feat, level: level})
	return tc, level
}

// newSkeleton builds a plan's reusable skeleton from its featurization.
func newSkeleton(root *planner.Node, feats [][]float64) *planSkeleton {
	s := &planSkeleton{flat: make([]bNode, 0, len(feats))}
	cursor := 0
	s.root, s.maxLevel = buildSkeleton(root, feats, &cursor, &s.flat)
	return s
}

// batchScratch holds forwardBatch's grouping buffers, reused across
// minibatch iterations so the grouping itself stays allocation-free.
type batchScratch struct {
	levels  [][]*bNode
	groups  [int(planner.NumOpTypes)][]*bNode
	opOrder []planner.OpType
}

// forwardBatch runs a batch of plan skeletons level by level: at each
// level (leaves first) the nodes sharing an operator type form one matrix
// through that operator's subnetwork. Every node's input, output, and
// cache row are bit-identical to the scalar forward — the batch only
// regroups independent rows, never reorders arithmetic within one.
func (m *Model) forwardBatch(ar *linalg.Arena, sc *batchScratch, skels []*planSkeleton) {
	maxLevel := 0
	for _, s := range skels {
		if s.maxLevel > maxLevel {
			maxLevel = s.maxLevel
		}
	}
	for len(sc.levels) <= maxLevel {
		sc.levels = append(sc.levels, nil)
	}
	levels := sc.levels[:maxLevel+1]
	for l := range levels {
		levels[l] = levels[l][:0]
	}
	for _, s := range skels {
		for i := range s.flat {
			bn := &s.flat[i]
			levels[bn.level] = append(levels[bn.level], bn)
		}
	}
	for _, lvl := range levels {
		sc.opOrder = sc.opOrder[:0]
		for _, bn := range lvl {
			op := bn.tc.op
			if len(sc.groups[op]) == 0 {
				sc.opOrder = append(sc.opOrder, op)
			}
			sc.groups[op] = append(sc.groups[op], bn)
		}
		for _, op := range sc.opOrder {
			group := sc.groups[op]
			net := m.Nets[op]
			x := ar.Alloc(len(group), net.InDim())
			for r, bn := range group {
				row := x.RowView(r)
				copy(row, bn.feat)
				// The child-sum suffix starts from explicit zeros (the
				// arena hands out uninitialized memory) and accumulates
				// child outputs in child order — the scalar order.
				childSum := row[len(bn.feat):]
				for k := range childSum {
					childSum[k] = 0
				}
				for _, cc := range bn.tc.children {
					for k, v := range cc.out {
						childSum[k] += v
					}
				}
			}
			y, cache := net.ForwardBatch(ar, x)
			for r, bn := range group {
				tc := bn.tc
				tc.out = y.RowView(r)
				tc.bc = cache
				tc.row = r
			}
			sc.groups[op] = group[:0]
		}
	}
}

// predictChunkNodes bounds how many plan nodes one inference chunk
// materializes (skeletons, features, and layer caches); plans are
// independent, so chunking never changes results.
const predictChunkNodes = 1024

// PredictBatch estimates every plan's execution time in one level-batched
// pass. Output i does not depend on the other plans in the batch: it is
// bit-identical to pricing roots[i] alone, as a batch of one.
func (m *Model) PredictBatch(roots []*planner.Node) []float64 {
	return m.predictSkeletons(len(roots),
		func(i int) int { return roots[i].CountNodes() },
		func(i int) *planSkeleton { return newSkeleton(roots[i], m.F.Featurize(roots[i]).Post) })
}

// PredictFeaturizedBatch is PredictBatch over pre-featurized plans (the
// query cache's feature tier): skeletons are built from the cached
// post-order rows instead of re-featurizing — exactly the feature reuse
// the training loop already does across iterations — so output i is
// bit-identical to PredictBatch of fps[i].Root.
func (m *Model) PredictFeaturizedBatch(fps []*encoding.FeaturizedPlan) []float64 {
	return m.predictSkeletons(len(fps),
		func(i int) int { return fps[i].NumNodes() },
		func(i int) *planSkeleton { return newSkeleton(fps[i].Root, fps[i].Post) })
}

// inferScratch is the transient state of one batched inference call —
// the arena behind every level matrix, forwardBatch's grouping buffers
// and the chunk's skeleton list. Predictions are copied out of it before
// the call returns, so calls recycle it through scratchPool.
type inferScratch struct {
	ar    linalg.Arena
	sc    batchScratch
	skels []*planSkeleton
}

var scratchPool = sync.Pool{New: func() any { return new(inferScratch) }}

// release empties the scratch of everything that points into the call's
// plans and returns it to the pool, unless its arena grew too large to keep.
func (is *inferScratch) release() {
	if !is.ar.Poolable() {
		return
	}
	clear(is.skels[:cap(is.skels)])
	for _, lvl := range is.sc.levels {
		clear(lvl[:cap(lvl)])
	}
	for op := range is.sc.groups {
		g := is.sc.groups[op]
		clear(g[:cap(g)])
	}
	scratchPool.Put(is)
}

// predictSkeletons runs the chunked level-batched inference loop over n
// plans whose skeletons are produced on demand by skel (size gives plan i's
// node count for chunk packing).
func (m *Model) predictSkeletons(n int, size func(int) int, skel func(int) *planSkeleton) []float64 {
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	is := scratchPool.Get().(*inferScratch)
	defer is.release()
	for start := 0; start < n; {
		is.ar.Reset()
		skels := is.skels[:0]
		end, nodes := start, 0
		for end < n && (end == start || nodes+size(end) <= predictChunkNodes) {
			skels = append(skels, skel(end))
			nodes += len(skels[len(skels)-1].flat)
			end++
		}
		is.skels = skels // keep the grown capacity for the next chunk/call
		m.forwardBatch(&is.ar, &is.sc, skels)
		for s := start; s < end; s++ {
			out[s] = metrics.UnlogMs(skels[s-start].root.out[0])
		}
		start = end
	}
	return out
}

// layers collects every subnetwork's parameters for the optimizer.
func (m *Model) layers() []*nn.Linear {
	var out []*nn.Linear
	for _, op := range planner.AllOpTypes() {
		out = append(out, m.Nets[op].Layers...)
	}
	return out
}

// Train fits the model on (plan, milliseconds) pairs for the given number
// of iterations (mini-batch steps) and returns the wall-clock training
// time — the quantity the paper's Table IV reports.
//
// Each minibatch runs the level-batched forward (features cached per plan
// across iterations) and then backpropagates sample by sample over row
// views of the batched caches, keeping gradient accumulation in the
// scalar order; the trajectory is bit-identical to the per-sample
// reference (reference_test.go).
func (m *Model) Train(plans []*planner.Node, ms []float64, iters int) time.Duration {
	d, _ := m.TrainCtx(context.Background(), plans, ms, iters)
	return d
}

// TrainCtx is Train with cooperative cancellation: ctx is checked at the
// top of every minibatch iteration — never inside one — so cancellation
// stops training promptly (within one minibatch) and the weights are
// always left in the consistent state of the last completed optimizer
// step. Iterations that do run consume rng and update weights exactly
// like Train, so an uncancelled TrainCtx is bit-identical to Train.
func (m *Model) TrainCtx(ctx context.Context, plans []*planner.Node, ms []float64, iters int) (time.Duration, error) {
	start := time.Now()
	if len(plans) == 0 {
		return time.Since(start), nil
	}
	layers := m.layers()
	targets := make([]float64, len(ms))
	for i, v := range ms {
		targets[i] = metrics.LogMs(v)
	}
	bs := m.batch()
	// Lazy per-plan state, built on a plan's first draw and reused for
	// the rest of the call: featurization and execution skeleton.
	skels := make([]*planSkeleton, len(plans))
	usedIter := make([]int, len(plans))
	for i := range usedIter {
		usedIter[i] = -1
	}
	idx := make([]int, bs)
	batchSkels := make([]*planSkeleton, bs)
	dOut := make([]float64, m.OutVec)
	ar := &linalg.Arena{} // per-iteration batch matrices, reused across iterations
	sc := &batchScratch{}
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return time.Since(start), err
		}
		ar.Reset()
		for b := range idx {
			j := m.rng.Intn(len(plans))
			idx[b] = j
			switch {
			case skels[j] == nil:
				skels[j] = newSkeleton(plans[j], m.F.Featurize(plans[j]).Post)
				batchSkels[b] = skels[j]
			case usedIter[j] == it:
				// Duplicate draw within one minibatch: the cached
				// skeleton's node outputs would be clobbered, so this
				// occurrence gets a throwaway instance (features are
				// still shared).
				feats := make([][]float64, 0, len(skels[j].flat))
				for i := range skels[j].flat {
					feats = append(feats, skels[j].flat[i].feat)
				}
				batchSkels[b] = newSkeleton(plans[j], feats)
			default:
				batchSkels[b] = skels[j]
			}
			usedIter[j] = it
		}
		m.forwardBatch(ar, sc, batchSkels)
		for b, sk := range batchSkels {
			diff := sk.root.out[0] - targets[idx[b]]
			for i := range dOut {
				dOut[i] = 0
			}
			dOut[0] = 2 * diff
			m.backward(ar, sk.root, dOut)
		}
		m.opt.Step(layers, bs)
	}
	return time.Since(start), nil
}

// Clone deep-copies the model (weights only) — the basis of the §V-E
// transfer workflow, which clones a trained model and retrains briefly
// against a new environment's snapshot. It only reads m: the copy's
// optimizer starts fresh and its sampler from m's construction seed.
func (m *Model) Clone() *Model {
	c := &Model{
		F:         m.F,
		Hidden:    m.Hidden,
		OutVec:    m.OutVec,
		Nets:      make(map[planner.OpType]*nn.MLP, len(m.Nets)),
		BatchSize: m.BatchSize,
		opt:       nn.NewAdam(defaultLR),
		rng:       rand.New(rand.NewSource(m.seed)),
		seed:      m.seed,
	}
	for op, net := range m.Nets {
		c.Nets[op] = net.Clone()
	}
	return c
}

// SetFeaturizer swaps the featurizer (e.g. replacing the snapshot with one
// fitted on new hardware). The feature dimensionality must be unchanged.
func (m *Model) SetFeaturizer(f *encoding.Featurizer) {
	if f.Dim() != m.F.Dim() {
		panic("qppnet: featurizer dimension mismatch")
	}
	m.F = f
}

// NumParams reports the total trainable parameter count.
func (m *Model) NumParams() int {
	var n int
	for _, net := range m.Nets {
		n += net.NumParams()
	}
	return n
}
