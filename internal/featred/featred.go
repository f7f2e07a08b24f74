// Package featred implements the paper's §IV feature reduction for
// AI-driven query cost estimators: given operator-level labeled data and a
// learned cost model, decide which input dimensions are useless and prune
// them before training the production model.
//
// Three methods are provided, matching the ablation of Figure 6:
//
//   - Greedy (Algorithm 2): iteratively drop the feature whose removal most
//     improves q-error; polynomial but blind to feature co-relations.
//   - Gradient (GD): expected |∂y/∂x_k| via backprop; cheap but broken by
//     one-hot (discrete) inputs and ReLU gradient vanishing.
//   - Difference propagation (FR, Algorithm 3 / Equation 1): expected
//     absolute difference-quotient multipliers against a sampled reference
//     set R, propagated layer by layer (the DeepLIFT rescale rule the paper
//     cites); robust to both failure modes above.
package featred

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// forwardChunk bounds the number of rows one batched forward materializes
// at a time; difference propagation caches every layer's activations, so
// unbounded batches would hold the whole dataset's activations at once.
const forwardChunk = 1024

// Dataset is operator-level labeled data: one feature vector and one
// metrics.LogMs cost target per operator occurrence.
type Dataset struct {
	X     [][]float64
	Y     []float64 // metrics.LogMs(milliseconds)
	Names []string  // feature names, len == dim
}

// Dim returns the feature dimensionality.
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Subsample returns a dataset view with at most n examples (deterministic
// per seed); used to bound the cost of greedy's quadratic evaluation loop.
func (d *Dataset) Subsample(n int, seed int64) *Dataset {
	if len(d.X) <= n {
		return d
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(d.X))[:n]
	out := &Dataset{Names: d.Names}
	for _, i := range idx {
		out.X = append(out.X, d.X[i])
		out.Y = append(out.Y, d.Y[i])
	}
	return out
}

// TrainProbe fits the small MLP ("the learned cost model M" of Algorithms
// 2–3) that the reduction methods interrogate. Input features are used
// as-is; the target is metrics.LogMs(ms).
func TrainProbe(d *Dataset, hidden, epochs int, seed int64) *nn.MLP {
	rng := rand.New(rand.NewSource(seed))
	m := nn.NewMLP([]int{d.Dim(), hidden, hidden, 1}, rng)
	opt := nn.NewAdam(0.005)
	layers := nn.LayersOf(m)
	n := len(d.X)
	if n == 0 {
		return m
	}
	// Minibatches run through the batched kernels; draws, per-sample
	// arithmetic, and gradient-accumulation order all match the former
	// per-sample loop, so the probe's weight trajectory is unchanged.
	const batch = 32
	x := linalg.NewMatrix(batch, d.Dim())
	dOut := linalg.NewMatrix(batch, 1)
	targets := make([]float64, batch)
	ar := &linalg.Arena{}
	for ep := 0; ep < epochs; ep++ {
		for b := 0; b < n; b += batch {
			ar.Reset()
			sz := batch
			if n-b < sz {
				sz = n - b
			}
			for i := 0; i < sz; i++ {
				j := rng.Intn(n)
				x.SetRow(i, d.X[j])
				targets[i] = d.Y[j]
			}
			xb := x
			if sz < batch {
				xb = &linalg.Matrix{Rows: sz, Cols: x.Cols, Data: x.Data[:sz*x.Cols]}
			}
			y, c := m.ForwardBatch(ar, xb)
			for i := 0; i < sz; i++ {
				dOut.Data[i] = 2 * (y.At(i, 0) - targets[i])
			}
			db := dOut
			if sz < batch {
				db = &linalg.Matrix{Rows: sz, Cols: 1, Data: dOut.Data[:sz]}
			}
			m.BackwardBatchNoInput(ar, c, db)
			opt.Step(layers, sz)
		}
	}
	return m
}

// QErrorOf evaluates the model's mean q-error on the dataset with an
// optional feature mask applied (nil = all features kept). Predictions and
// targets are de-logged first, per the paper's Equation 2.
func QErrorOf(m *nn.MLP, d *Dataset, mask []bool) float64 {
	if len(d.X) == 0 {
		return 0
	}
	// Predictions run batched (greedy reduction calls this once per
	// candidate feature per round — it is the reduction hot path); the
	// q-error sum still accumulates in sample order.
	var sum float64
	dim := d.Dim()
	ar := &linalg.Arena{}
	for base := 0; base < len(d.X); base += forwardChunk {
		ar.Reset()
		end := base + forwardChunk
		if end > len(d.X) {
			end = len(d.X)
		}
		x := ar.Alloc(end-base, dim)
		for r := base; r < end; r++ {
			row := x.RowView(r - base)
			copy(row, d.X[r])
			if mask != nil {
				for k, keep := range mask {
					if !keep {
						row[k] = 0
					}
				}
			}
		}
		pred := m.PredictBatch(ar, x)
		for r := base; r < end; r++ {
			sum += metrics.QError(metrics.UnlogMs(d.Y[r]), metrics.UnlogMs(pred.At(r-base, 0)))
		}
	}
	return sum / float64(len(d.X))
}

// GreedyReduce is the paper's Algorithm 2: starting from all features,
// repeatedly drop the single feature whose masking most lowers mean
// q-error; stop when no single drop helps. Returns the keep-mask.
func GreedyReduce(m *nn.MLP, d *Dataset) []bool {
	dim := d.Dim()
	mask := make([]bool, dim)
	for i := range mask {
		mask[i] = true
	}
	cmin := QErrorOf(m, d, mask)
	for {
		drop := -1
		c := cmin
		for f := 0; f < dim; f++ {
			if !mask[f] {
				continue
			}
			mask[f] = false
			cf := QErrorOf(m, d, mask)
			mask[f] = true
			if cf < c {
				c, drop = cf, f
			}
		}
		if drop < 0 {
			return mask
		}
		mask[drop] = false
		cmin = c
	}
}

// GradientScores is the GD baseline: the expected absolute input gradient
// E|∂y/∂x_k| over the dataset. One-hot dimensions and dead-ReLU regions
// yield zero gradients, which is precisely the failure mode §IV-B
// describes.
//
// Samples go through the network in batched forwards of forwardChunk
// rows; each sample's unit output gradient then flows back through the
// ReLU masks of its cached pre-activations and, per layer, through
// diffKernel.addWT — whose sums start from +0, skip zero entries and take
// the layer's outputs in ascending order, the arithmetic of a scalar
// input-gradient backward. The model's weights and accumulated gradients
// are only read.
func GradientScores(m *nn.MLP, X [][]float64) []float64 {
	if len(X) == 0 {
		return nil
	}
	dim := len(X[0])
	kern := newDiffKernel(m, 1)
	scores := make([]float64, dim)
	ar := &linalg.Arena{}
	for base := 0; base < len(X); base += forwardChunk {
		ar.Reset()
		end := min(base+forwardChunk, len(X))
		chunk := ar.Alloc(end-base, dim)
		for r := base; r < end; r++ {
			chunk.SetRow(r-base, X[r])
		}
		_, xs := m.ForwardBatch(ar, chunk)
		for s := 0; s < end-base; s++ {
			for k, v := range kern.inputGradient(m, xs, s) {
				scores[k] += math.Abs(v)
			}
		}
	}
	for k := range scores {
		scores[k] /= float64(len(X))
	}
	return scores
}

// diffBlock is the number of samples one pool task prices, and
// diffRoundBlocks the number of tasks per worker in one round: a round's
// samples are priced in parallel, then folded, and several tasks per
// worker even out the workers' finishing times before the fold.
const (
	diffBlock       = 4
	diffRoundBlocks = 4
)

// DiffPropScores implements Equation 1: for every (sample, reference) pair
// it propagates difference-quotient multipliers from the output back to
// the inputs through the cached layer activations, and averages their
// absolute contributions per dimension. References are sampled from the
// data itself (Algorithm 3 line 1); nRef must be positive.
//
// Samples fan out over the internal/parallel pool in blocks of diffBlock;
// each block writes its samples' |multiplier × Δx| contributions into
// per-sample slots, and the calling goroutine folds the slots into the
// scores in (sample, reference, dimension) order, as the one-pair-at-a-
// time loop did. The scores are therefore bit-identical at any worker
// count (docs/ARCHITECTURE.md §3–§4).
func DiffPropScores(m *nn.MLP, X [][]float64, nRef int, seed int64) []float64 {
	if len(X) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	if nRef > len(X) {
		nRef = len(X)
	}
	// The reference set and the samples both run through the network
	// batched; each row of a batched forward is bit-identical to the
	// scalar forward. Reference caches persist across every chunk, so
	// they come from the heap (nil arena); chunk caches die with their
	// chunk.
	refIdx := rng.Perm(len(X))[:nRef]
	dim := len(X[0])
	refMat := linalg.NewMatrix(nRef, dim)
	for i, ri := range refIdx {
		refMat.SetRow(i, X[ri])
	}
	_, refs := m.ForwardBatch(nil, refMat)

	workers := parallel.Workers(0)
	kernels := make([]diffKernel, workers)
	for w := range kernels {
		kernels[w] = newDiffKernel(m, nRef)
	}
	round := diffRoundBlocks * workers * diffBlock
	slot := nRef * dim
	contrib := make([]float64, round*slot)
	scores := make([]float64, dim)
	ar := &linalg.Arena{}
	for base := 0; base < len(X); base += forwardChunk {
		ar.Reset()
		end := min(base+forwardChunk, len(X))
		chunk := ar.Alloc(end-base, dim)
		for r := base; r < end; r++ {
			chunk.SetRow(r-base, X[r])
		}
		_, xs := m.ForwardBatch(ar, chunk)
		for lo := base; lo < end; lo += round {
			hi := min(lo+round, end)
			parallel.ForEachWorker((hi-lo+diffBlock-1)/diffBlock, workers, func(w, b int) {
				for s := lo + b*diffBlock; s < min(lo+(b+1)*diffBlock, hi); s++ {
					kernels[w].price(m, xs, s-base, refs, X[s], contrib[(s-lo)*slot:(s-lo+1)*slot])
				}
			})
			// Contribution form: multiplier × Δx. A dimension that never
			// differs from the references (an unused table/index one-hot,
			// a constant knob) contributes exactly zero and is reduced —
			// Equation 1's Δx_k denominator cancels against it.
			for p := 0; p < (hi-lo)*nRef; p++ {
				for k, c := range contrib[p*dim : (p+1)*dim] {
					scores[k] += c
				}
			}
		}
	}
	pairs := float64(len(X) * nRef)
	for k := range scores {
		scores[k] /= pairs
	}
	return scores
}

// diffKernel is one worker's scratch for pricing a sample against every
// reference: two nRef × width multiplier matrices, reused for every
// sample, so a pair allocates nothing.
type diffKernel struct {
	g, next []float64
	nz      []int // the nonzero entries of one multiplier row
}

func newDiffKernel(m *nn.MLP, nRef int) diffKernel {
	width := 1
	for _, l := range m.Layers {
		width = max(width, l.In, l.Out)
	}
	return diffKernel{g: make([]float64, nRef*width), next: make([]float64, nRef*width), nz: make([]int, width)}
}

// addWT adds Wᵀg to d (W is len(g) × len(d), row-major), skipping zero
// entries of g. Each d[i] takes its products in ascending row order, one
// rounding per addition, as `for o { d[i] += g[o]*W[o][i] }` does; four
// rows share one pass over d to save its loads and stores.
func (k *diffKernel) addWT(d, g, W []float64) {
	n := len(d)
	nz := k.nz[:0]
	for o, gv := range g {
		if gv != 0 {
			nz = append(nz, o)
		}
	}
	t := 0
	for ; t+4 <= len(nz); t += 4 {
		o0, o1, o2, o3 := nz[t], nz[t+1], nz[t+2], nz[t+3]
		g0, g1, g2, g3 := g[o0], g[o1], g[o2], g[o3]
		w0, w1, w2, w3 := W[o0*n:][:n], W[o1*n:][:n], W[o2*n:][:n], W[o3*n:][:n]
		for i := range d {
			d[i] = d[i] + g0*w0[i] + g1*w1[i] + g2*w2[i] + g3*w3[i]
		}
	}
	for ; t < len(nz); t++ {
		o := nz[t]
		gv, w := g[o], W[o*n:][:n]
		for i := range d {
			d[i] += gv * w[i]
		}
	}
}

// inputGradient returns ∂out[0]/∂x at row s of the batched forward cache
// xs: the unit output gradient carried back through every layer's Wᵀ,
// zeroed wherever the ReLU's pre-activation is not positive. The result
// lives in k's scratch until the next call.
func (k *diffKernel) inputGradient(m *nn.MLP, xs *nn.BatchCache, s int) []float64 {
	last := len(m.Layers) - 1
	g, spare := k.g[:m.OutDim()], k.next
	clear(g)
	g[0] = 1
	for li := last; li >= 0; li-- {
		l := m.Layers[li]
		if li < last {
			for i, z := range xs.Pre[li].RowView(s)[:len(g)] {
				if !(z > 0) {
					g[i] = 0
				}
			}
		}
		dx := spare[:l.In]
		clear(dx)
		k.addWT(dx, g, l.W)
		g, spare = dx, g[:cap(g)]
	}
	return g
}

// price writes sample s's contributions |Δy/Δx_k · (x_k − ref_k)| against
// every reference into out (nRef × dim, reference-major). xs and refs are
// the batched forward caches of the sample's chunk and of the references;
// x is the sample itself.
//
// Row r of the multiplier matrix is the pair (s, r)'s multiplier vector,
// propagated from the output by the rescale rule: linear layers
// propagate exactly (Wᵀ), ReLU layers scale by Δa/Δz, falling back to the
// local derivative when Δz ≈ 0. Every element sees exactly the
// arithmetic of the one-pair-at-a-time loop: the same rescale expression
// and fallback, the same skip of zero multipliers, and Wᵀ's sums taken
// over the layer's outputs in ascending order from +0.
func (k *diffKernel) price(m *nn.MLP, xs *nn.BatchCache, s int, refs *nn.BatchCache, x, out []float64) {
	nRef := refs.Act[0].Rows
	last := len(m.Layers) - 1
	g, spare := k.g[:nRef], k.next
	for r := range g {
		g[r] = 1 // the multiplier at the scalar output
	}
	for li := last; li >= 0; li-- {
		l := m.Layers[li]
		if li < last {
			zx, ax := xs.Pre[li].RowView(s)[:l.Out], xs.Act[li+1].RowView(s)[:l.Out]
			for r := 0; r < nRef; r++ {
				gr := g[r*l.Out : (r+1)*l.Out]
				zr, ar := refs.Pre[li].RowView(r)[:len(gr)], refs.Act[li+1].RowView(r)[:len(gr)]
				for i := range gr {
					switch dz := zx[i] - zr[i]; {
					case math.Abs(dz) > 1e-9:
						gr[i] = gr[i] * (ax[i] - ar[i]) / dz
					case zx[i] > 0:
						// ReLU derivative 1 on the active side: gr[i] stays.
					default:
						gr[i] = 0
					}
				}
			}
		}
		dx := spare[:nRef*l.In]
		if li == 0 {
			dx = out
		}
		clear(dx)
		for r := 0; r < nRef; r++ {
			k.addWT(dx[r*l.In:(r+1)*l.In], g[r*l.Out:(r+1)*l.Out], l.W)
		}
		g, spare = dx, g[:cap(g)]
	}
	for r := 0; r < nRef; r++ {
		mult, ref := out[r*len(x):(r+1)*len(x)], refs.Act[0].RowView(r)
		for i := range mult {
			mult[i] = math.Abs(mult[i] * (x[i] - ref[i]))
		}
	}
}

// MaskFromScores turns importance scores into a keep-mask: a feature is
// kept when its score exceeds threshold·max(score). The paper's Algorithm 3
// keeps score > 0; the relative threshold is the numerical form of that
// cut under float noise.
func MaskFromScores(scores []float64, threshold float64) []bool {
	var max float64
	for _, s := range scores {
		if s > max {
			max = s
		}
	}
	mask := make([]bool, len(scores))
	for i, s := range scores {
		mask[i] = s > threshold*max
	}
	return mask
}

// Apply projects x down to the kept dimensions.
func Apply(mask []bool, x []float64) []float64 {
	out := make([]float64, 0, len(x))
	for i, keep := range mask {
		if keep {
			out = append(out, x[i])
		}
	}
	return out
}

// ApplyInto projects x down to the kept dimensions into dst, which must
// have CountKept(mask) capacity behind it (dst is resliced from 0). The
// allocation-free sibling of Apply for the featurize-into-matrix paths.
func ApplyInto(mask []bool, x, dst []float64) []float64 {
	dst = dst[:0]
	for i, keep := range mask {
		if keep {
			dst = append(dst, x[i])
		}
	}
	return dst
}

// ApplyAll projects a whole matrix.
func ApplyAll(mask []bool, X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, x := range X {
		out[i] = Apply(mask, x)
	}
	return out
}

// CountKept returns the number of surviving features.
func CountKept(mask []bool) int {
	n := 0
	for _, k := range mask {
		if k {
			n++
		}
	}
	return n
}

// ReductionRatio returns the dropped fraction.
func ReductionRatio(mask []bool) float64 {
	if len(mask) == 0 {
		return 0
	}
	return 1 - float64(CountKept(mask))/float64(len(mask))
}

// DroppedNames lists the names of pruned features (for Figure 7 output).
func DroppedNames(mask []bool, names []string) []string {
	var out []string
	for i, keep := range mask {
		if !keep && i < len(names) {
			out = append(out, names[i])
		}
	}
	return out
}

// Validate checks mask/width consistency before models apply them.
func Validate(mask []bool, dim int) error {
	if len(mask) != dim {
		return fmt.Errorf("featred: mask width %d != feature dim %d", len(mask), dim)
	}
	if CountKept(mask) == 0 {
		return fmt.Errorf("featred: mask removes every feature")
	}
	return nil
}
