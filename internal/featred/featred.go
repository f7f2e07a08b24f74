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
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

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

// diffKeepBytes caps the contributions DiffPropScores keeps for sample rows
// that repeat in a later round. A repeat whose row found no room under the
// cap is priced again, which gives the same bits: pricing is deterministic.
const diffKeepBytes = 16 << 20

// DiffPropScores implements Equation 1: for every (sample, reference) pair
// it propagates difference-quotient multipliers from the output back to
// the inputs through the cached layer activations, and averages their
// absolute contributions per dimension. References are sampled from the
// data itself (Algorithm 3 line 1); nRef must be positive.
//
// A pair's contributions depend only on the bits of its two rows, so each
// distinct (sample row, reference row) pair is priced once. References
// that repeat a row run through the network and the kernel once, and a
// sample row that repeats an earlier one reads that row's contributions:
// from the same round's slots, or from a copy kept across rounds until the
// row's last occurrence, within diffKeepBytes. Samples fan out over the
// internal/parallel pool in blocks of diffBlock; the calling goroutine then
// folds every (sample, reference, dimension) contribution into the scores
// in that order, repeats included, as the one-pair-at-a-time loop did. The
// scores are therefore bit-identical at any worker count
// (docs/ARCHITECTURE.md §3–§4).
func DiffPropScores(m *nn.MLP, X [][]float64, nRef int, seed int64) []float64 {
	if len(X) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	if nRef > len(X) {
		nRef = len(X)
	}
	n, dim := len(X), len(X[0])
	ids := make([]int32, 4*n)
	order, first, last, at := ids[:n], ids[n:2*n], ids[2*n:3*n], ids[3*n:]

	// The distinct references run through the network batched; each row of
	// a batched forward is bit-identical to the scalar forward. Their caches
	// persist across every chunk, so they come from the heap (nil arena);
	// chunk caches die with their chunk. refSlot maps each reference, in
	// refIdx order, to its row of the distinct forward: it first holds each
	// reference's first copy, which precedes it, so the slots fill in place.
	refIdx := rng.Perm(n)[:nRef]
	refSlot := make([]int32, nRef)
	copies(order[:nRef], refSlot, nil, func(i int) []float64 { return X[refIdx[i]] })
	distinct := 0
	for i, f := range refSlot {
		if int(f) < i {
			refSlot[i] = refSlot[f]
		} else {
			refSlot[i] = int32(distinct)
			distinct++
		}
	}
	refMat := linalg.NewMatrix(distinct, dim)
	for i, ri := range refIdx {
		refMat.SetRow(int(refSlot[i]), X[ri])
	}
	_, refs := m.ForwardBatch(nil, refMat)

	workers := parallel.Workers(0)
	kernels := make([]diffKernel, workers)
	for w := range kernels {
		kernels[w] = newDiffKernel(m, distinct)
	}
	round := diffRoundBlocks * workers * diffBlock
	slot := distinct * dim
	contrib := make([]float64, round*slot)
	from := make([][]float64, round) // each round sample's contributions
	todo := make([]int32, 0, round)  // the round samples priced

	// Each sample's first and last copy. The kept rows never outnumber
	// the rows live between two of their copies, nor diffKeepBytes.
	copies(order, first, last, func(i int) []float64 { return X[i] })
	keepRows := min(liveRepeats(first, last), diffKeepBytes/(8*max(slot, 1)))
	keep := make([]float64, keepRows*slot)
	free := make([][]float64, keepRows)
	for i := range free {
		free[i] = keep[i*slot : (i+1)*slot]
	}
	held := make([][]float64, n) // the kept contributions of a first copy's row
	for i := range at {
		at[i] = -1 // the round sample priced for a first copy's row
	}

	scores := make([]float64, dim)
	ar := &linalg.Arena{}
	for base := 0; base < n; base += forwardChunk {
		ar.Reset()
		end := min(base+forwardChunk, n)
		chunk := ar.Alloc(end-base, dim)
		for r := base; r < end; r++ {
			chunk.SetRow(r-base, X[r])
		}
		_, xs := m.ForwardBatch(ar, chunk)
		for lo := base; lo < end; lo += round {
			hi := min(lo+round, end)
			todo = todo[:0]
			for s := lo; s < hi; s++ {
				switch g := first[s]; {
				case held[g] != nil:
					from[s-lo] = held[g]
				case int(at[g]) >= lo:
					from[s-lo] = from[int(at[g])-lo]
				default:
					at[g] = int32(s)
					from[s-lo] = contrib[(s-lo)*slot : (s-lo+1)*slot]
					todo = append(todo, int32(s))
				}
			}
			// TODO is never cancelled, so the pool runs every block and
			// returns nil.
			_ = parallel.ForEachWorkerCtx(context.TODO(), (len(todo)+diffBlock-1)/diffBlock, workers, func(w, b int) {
				for _, s := range todo[b*diffBlock : min((b+1)*diffBlock, len(todo))] {
					kernels[w].price(m, xs, int(s)-base, refs, X[s], from[int(s)-lo])
				}
			})
			// Contribution form: multiplier × Δx. A dimension that never
			// differs from the references (an unused table/index one-hot,
			// a constant knob) contributes exactly zero and is reduced —
			// Equation 1's Δx_k denominator cancels against it.
			for _, c := range from[:hi-lo] {
				for _, r := range refSlot {
					for k, v := range c[int(r)*dim : (int(r)+1)*dim] {
						scores[k] += v
					}
				}
			}
			// Free the rows whose last copy was in this round, then keep
			// the rows priced in it that occur again after it.
			for s := lo; s < hi; s++ {
				if g := first[s]; int(last[s]) == s && held[g] != nil {
					free = append(free, held[g])
					held[g] = nil
				}
			}
			for _, s := range todo {
				if int(last[s]) >= hi && len(free) > 0 {
					g := first[s]
					held[g] = free[len(free)-1]
					free = free[:len(free)-1]
					copy(held[g], from[int(s)-lo])
				}
			}
		}
	}
	pairs := float64(n * nRef)
	for k := range scores {
		scores[k] /= pairs
	}
	return scores
}

// copies groups the rows row(0), …, row(len(order)−1) by their bits: it
// sets first[i] and, when last is not nil, last[i] to the smallest and the
// largest j whose row equals row i bit for bit. It sorts order, its
// scratch, by row bits and then index, so it allocates nothing per row.
func copies(order, first, last []int32, row func(int) []float64) {
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := compareBits(row(int(a)), row(int(b))); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && compareBits(row(int(order[lo])), row(int(order[hi]))) == 0 {
			hi++
		}
		for _, i := range order[lo:hi] {
			first[i] = order[lo]
			if last != nil {
				last[i] = order[hi-1]
			}
		}
		lo = hi
	}
}

// compareBits orders two equal-length rows by the bits of their elements.
func compareBits(a, b []float64) int {
	for k := range a {
		if c := cmp.Compare(math.Float64bits(a[k]), math.Float64bits(b[k])); c != 0 {
			return c
		}
	}
	return 0
}

// liveRepeats returns the largest number of rows that have a copy before
// and a copy after one sample position, given copies' first and last.
func liveRepeats(first, last []int32) int {
	live, most := 0, 0
	for i := range first {
		if int(first[i]) < i && int(last[i]) == i {
			live--
		}
		if int(first[i]) == i && int(last[i]) > i {
			live++
		}
		most = max(most, live)
	}
	return most
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

// MaskFromScores turns importance scores into a keep-mask with Algorithm
// 3's cut: a feature is kept when its score is above 0. Every pair term
// of a difference-propagation score carries the factor x − ref, so a
// dimension that holds one value across the samples scores 0 and is
// dropped.
func MaskFromScores(scores []float64) []bool {
	mask := make([]bool, len(scores))
	for i, s := range scores {
		mask[i] = s > 0
	}
	return mask
}

// ApplyInto projects x down to the kept dimensions into dst, which must
// have CountKept(mask) capacity behind it (dst is resliced from 0), so the
// featurize-into-matrix paths project without allocating.
func ApplyInto(mask []bool, x, dst []float64) []float64 {
	dst = dst[:0]
	for i, keep := range mask {
		if keep {
			dst = append(dst, x[i])
		}
	}
	return dst
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
