package featred

import (
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/nn"
	"repro/internal/nn/nntest"
)

// This file keeps difference propagation as it was before DiffPropScores
// priced one sample against every reference at once on the worker pool:
// one refDiffMultipliers call, with its per-layer heap slices, per
// (sample, reference) pair, on one goroutine. TestDiffPropMatchesReference
// requires the two to agree bitwise. The bodies below are verbatim apart
// from the ref prefixes.

// refDiffPropScores implements Equation 1: for every (sample, reference) pair
// it propagates difference-quotient multipliers from the output back to
// the inputs through the cached layer activations, and averages their
// absolute values per dimension. References are sampled from the data
// itself (Algorithm 3 line 1).
func refDiffPropScores(m *nn.MLP, X [][]float64, nRef int, seed int64) []float64 {
	if len(X) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	if nRef > len(X) {
		nRef = len(X)
	}
	// The reference set and the samples both run through the network
	// batched — these are the "many near-identical forward passes" of the
	// reduction step, and each row of a batched forward is bit-identical
	// to the scalar forward, so the scores are unchanged.
	refIdx := rng.Perm(len(X))[:nRef]
	refMat := linalg.NewMatrix(nRef, len(X[0]))
	for i, ri := range refIdx {
		refMat.SetRow(i, X[ri])
	}
	// Reference caches persist across every chunk, so they come from the
	// heap (nil arena); chunk caches die with their chunk.
	_, refCache := m.ForwardBatch(nil, refMat)
	refs := make([]*nntest.Cache, nRef)
	for i := range refs {
		refs[i] = nntest.Sample(refCache, i)
	}
	dim := len(X[0])
	scores := make([]float64, dim)
	var pairs float64
	ar := &linalg.Arena{}
	for base := 0; base < len(X); base += forwardChunk {
		ar.Reset()
		end := base + forwardChunk
		if end > len(X) {
			end = len(X)
		}
		chunk := ar.Alloc(end-base, dim)
		for r := base; r < end; r++ {
			chunk.SetRow(r-base, X[r])
		}
		_, chunkCache := m.ForwardBatch(ar, chunk)
		for r := base; r < end; r++ {
			x := X[r]
			cx := nntest.Sample(chunkCache, r-base)
			for _, cr := range refs {
				mult := refDiffMultipliers(m, cx, cr)
				ref := cr.Act[0]
				// Contribution form: multiplier × Δx. A dimension that never
				// differs from the references (an unused table/index one-hot,
				// a constant knob) contributes exactly zero and is reduced —
				// Equation 1's Δx_k denominator cancels against it.
				for k := 0; k < dim; k++ {
					scores[k] += math.Abs(mult[k] * (x[k] - ref[k]))
				}
				pairs++
			}
		}
	}
	for k := range scores {
		scores[k] /= pairs
	}
	return scores
}

// refDiffMultipliers computes the input multipliers Δy/Δx_k for one pair via
// the rescale rule: linear layers propagate exactly (Wᵀ), ReLU layers
// scale by Δa/Δz (falling back to the local derivative when Δz ≈ 0). This
// is the well-defined form of the telescoping product in Equation 1.
func refDiffMultipliers(m *nn.MLP, cx, cr *nntest.Cache) []float64 {
	g := []float64{1} // multiplier at the scalar output
	for li := len(m.Layers) - 1; li >= 0; li-- {
		if li < len(m.Layers)-1 {
			zx, zr := cx.Pre[li], cr.Pre[li]
			ax, ar := cx.Act[li+1], cr.Act[li+1]
			scaled := make([]float64, len(g))
			for i := range g {
				dz := zx[i] - zr[i]
				if math.Abs(dz) > 1e-9 {
					scaled[i] = g[i] * (ax[i] - ar[i]) / dz
				} else if zx[i] > 0 {
					scaled[i] = g[i] // ReLU derivative 1 on the active side
				}
			}
			g = scaled
		}
		l := m.Layers[li]
		dx := make([]float64, l.In)
		for o := 0; o < l.Out; o++ {
			if g[o] == 0 {
				continue
			}
			row := l.W[o*l.In : (o+1)*l.In]
			for i := range row {
				dx[i] += g[o] * row[i]
			}
		}
		g = dx
	}
	return g
}

// refGradientScores is GradientScores as it was before it ran on the
// batched forward: one scalar input-gradient pass (its own scalar forward
// included) per sample, on one goroutine. TestGradientScoresMatchesReference
// requires the two to agree bitwise. The body is verbatim apart from the
// ref prefix and the oracle call, which was the MLP's InputGradient method
// before it moved to nntest.
func refGradientScores(m *nn.MLP, X [][]float64) []float64 {
	if len(X) == 0 {
		return nil
	}
	scores := make([]float64, len(X[0]))
	for _, x := range X {
		g := nntest.InputGradient(m, x, 0)
		for k, v := range g {
			scores[k] += math.Abs(v)
		}
	}
	for k := range scores {
		scores[k] /= float64(len(X))
	}
	return scores
}
