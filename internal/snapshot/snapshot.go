// Package snapshot implements the paper's feature snapshot (§III): a
// compact per-operator vector of cost coefficients that captures the
// influence of the ignored variables (knobs, hardware, storage structure,
// OS) on query cost.
//
// Coefficients are fitted by non-negative least squares against the
// logical cost formulas of the paper's Table I, using labeled operator
// samples collected from executed plans. The fitted coefficients — and the
// formula's predicted time for a node's estimated cardinalities — are
// appended to every operator's feature vector, so a learned estimator can
// specialize its prediction to the environment without having to infer the
// environment from scratch.
package snapshot

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/planner"
)

// CoeffDim is the number of coefficients kept per operator (c0..c3; the
// nested-loop formula uses all four, the rest are zero-padded).
const CoeffDim = 4

// FeatureDim is the width of the snapshot feature block appended to every
// operator encoding: log formula-predicted time plus the four (scaled)
// coefficients.
const FeatureDim = 1 + CoeffDim

// coeffFeature maps a non-negative ms-per-unit coefficient to a bounded
// network input: log1p of the value in nanoseconds. Coefficients span
// ~1e-4 ms (CPU per tuple on fast hardware) to ~5 ms (random page on
// spinning disk); the log keeps both ends within a few units, which Adam
// handles without divergence.
func coeffFeature(c float64) float64 {
	if c < 0 {
		c = 0
	}
	return math.Log1p(c * 1e6)
}

// OpSample is one labeled operator execution: input cardinalities (the
// paper's n / n1 / n2) and the operator's own measured time.
type OpSample struct {
	Op     planner.OpType
	N1, N2 float64
	Ms     float64
}

// CollectSamples extracts one OpSample per node from an executed
// (annotated) plan tree.
func CollectSamples(root *planner.Node) []OpSample {
	var out []OpSample
	root.Walk(func(n *planner.Node) {
		out = append(out, OpSample{Op: n.Op, N1: n.ActualIn1, N2: n.ActualIn2, Ms: n.ActualMs})
	})
	return out
}

// designRow maps an operator's input cardinalities to the regressor row of
// its logical cost formula (paper Table I):
//
//	Seq/Index Scan, Materialize, Aggregate,
//	Merge/Hash Join            F = c0·n + c1            (joins: n = n1+n2)
//	Sort                       F = c0·n·log n + c1
//	Nested Loop                F = c0·n1·n2 + c1·n1 + c2·n2 + c3
//
// Rows are CoeffDim wide; unused coefficients see a zero regressor. The
// row is returned by value so per-node inference evaluates it on the
// stack.
func designRow(op planner.OpType, n1, n2 float64) [CoeffDim]float64 {
	var row [CoeffDim]float64
	switch op {
	case planner.Sort:
		row[0] = n1 * safeLog2(n1)
		row[1] = 1
	case planner.NestedLoop:
		row[0] = n1 * n2
		row[1] = n1
		row[2] = n2
		row[3] = 1
	case planner.HashJoin, planner.MergeJoin:
		row[0] = n1 + n2
		row[1] = 1
	default: // SeqScan, IndexScan, Aggregate, Materialize
		row[0] = n1
		row[1] = 1
	}
	return row
}

// Snapshot holds the fitted per-operator coefficients for one environment.
type Snapshot struct {
	Coeffs map[planner.OpType][]float64 // CoeffDim per operator
	// Samples records how many labeled operators backed each fit.
	Samples map[planner.OpType]int
}

// Fit computes the feature snapshot from labeled operator samples via
// non-negative least squares per operator type. Operators with no samples
// get zero coefficients (their snapshot features stay neutral).
func Fit(samples []OpSample) (*Snapshot, error) {
	byOp := make(map[planner.OpType][]OpSample)
	for _, s := range samples {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	snap := &Snapshot{
		Coeffs:  make(map[planner.OpType][]float64),
		Samples: make(map[planner.OpType]int),
	}
	for _, op := range planner.AllOpTypes() {
		ss := byOp[op]
		snap.Samples[op] = len(ss)
		if len(ss) == 0 {
			snap.Coeffs[op] = make([]float64, CoeffDim)
			continue
		}
		a := linalg.NewMatrix(len(ss), CoeffDim)
		y := make([]float64, len(ss))
		for i, s := range ss {
			row := designRow(s.Op, s.N1, s.N2)
			copy(a.Data[i*CoeffDim:(i+1)*CoeffDim], row[:])
			y[i] = s.Ms
		}
		coef, err := linalg.LeastSquaresNonNegative(a, y)
		if err != nil {
			return nil, fmt.Errorf("snapshot: fitting %v: %w", op, err)
		}
		snap.Coeffs[op] = coef
	}
	return snap, nil
}

// FormulaMs evaluates the fitted logical formula for an operator at the
// given (estimated or actual) cardinalities.
func (s *Snapshot) FormulaMs(op planner.OpType, n1, n2 float64) float64 {
	coef := s.Coeffs[op]
	if coef == nil {
		return 0
	}
	row := designRow(op, n1, n2)
	var t float64
	for i, r := range row {
		t += r * coef[i]
	}
	return t
}

// Features returns the snapshot feature block for one plan node, computed
// from the planner's input-cardinality estimates (no execution needed at
// inference time).
func (s *Snapshot) Features(n *planner.Node) []float64 {
	out := make([]float64, FeatureDim)
	s.FeaturesInto(n, out)
	return out
}

// FeaturesInto writes the node's snapshot feature block into dst
// (length FeatureDim), overwriting every element — Features without the
// allocation, for featurizing straight into a plan's row storage.
func (s *Snapshot) FeaturesInto(n *planner.Node, dst []float64) {
	dst = dst[:FeatureDim]
	dst[0] = metrics.LogMs(s.FormulaMs(n.Op, n.EstIn1, n.EstIn2))
	coef := s.Coeffs[n.Op]
	for i := range dst[1:] {
		if coef != nil {
			dst[1+i] = coeffFeature(coef[i])
		} else {
			dst[1+i] = 0
		}
	}
}

// FeatureNames labels the snapshot block, aligned with Features.
func FeatureNames() []string {
	return []string{"fs:log_formula_ms", "fs:c0", "fs:c1", "fs:c2", "fs:c3"}
}

func safeLog2(n float64) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(n)
}
