// Package linalg provides the small dense linear-algebra kernel used by the
// feature-snapshot regression (least squares over logical cost formulas) and
// by the feature-reduction score computations.
//
// Matrices are dense, row-major float64. The package is deliberately tiny:
// QCFE only needs matrix products, transposes, and a robust least-squares
// solver for systems with a handful of unknowns (the cost coefficients
// c0..c3 of the paper's Table I).
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero-valued rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// RowView returns row i as a view into the matrix's backing array. Writes
// through the view mutate the matrix; the batched neural-network paths use
// views to hand per-sample slices to scalar code without copying.
func (m *Matrix) RowView(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("linalg: SetRow got %d values, want %d", len(v), m.Cols))
	}
	copy(m.Data[i*m.Cols:(i+1)*m.Cols], v)
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// Solve solves the square system a·x = b by Gaussian elimination with
// partial pivoting. It returns an error when the system is singular to
// working precision.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: Solve wants square system, got %dx%d with rhs %d", a.Rows, a.Cols, len(b))
	}
	// Augmented working copies.
	aw := a.Clone()
	bw := make([]float64, n)
	copy(bw, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(aw.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aw.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("linalg: singular matrix at column %d", col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				aw.Data[col*n+j], aw.Data[pivot*n+j] = aw.Data[pivot*n+j], aw.Data[col*n+j]
			}
			bw[col], bw[pivot] = bw[pivot], bw[col]
		}
		pv := aw.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aw.At(r, col) / pv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				aw.Data[r*n+j] -= f * aw.Data[col*n+j]
			}
			bw[r] -= f * bw[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := bw[i]
		for j := i + 1; j < n; j++ {
			s -= aw.At(i, j) * x[j]
		}
		x[i] = s / aw.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min_x ‖A·x − y‖² via ridge-regularized normal
// equations (AᵀA + λI)x = Aᵀy. A tiny λ keeps the system well conditioned
// when operator samples are collinear (e.g. a scan whose cardinality never
// varies), which happens routinely when fitting feature snapshots from
// small template workloads.
func LeastSquares(a *Matrix, y []float64) ([]float64, error) {
	if a.Rows != len(y) {
		return nil, fmt.Errorf("linalg: LeastSquares rows %d != targets %d", a.Rows, len(y))
	}
	if a.Rows == 0 || a.Cols == 0 {
		return nil, fmt.Errorf("linalg: empty system")
	}
	at := a.T()
	ata := at.Mul(a)
	// Per-column relative ridge: each diagonal entry grows by a tiny
	// fraction of itself (plus an absolute floor for all-zero columns).
	// Scaling per column keeps the regularization unit-free — design
	// matrices here mix cardinality columns (~1e5) with intercept columns
	// (1), and a shared ridge would crush the small ones.
	for i := 0; i < ata.Rows; i++ {
		ata.Set(i, i, ata.At(i, i)*(1+1e-9)+1e-10)
	}
	aty := at.MulVec(y)
	return Solve(ata, aty)
}

// LeastSquaresNonNegative solves least squares and clamps negative
// coefficients to zero, refitting the remaining ones. Cost coefficients are
// physically non-negative (time per page, time per tuple); a plain LS fit
// on noisy samples can cross zero, which would make the snapshot
// meaningless as a feature. The method is the classical active-set NNLS
// loop specialised to the few-variable systems used here.
func LeastSquaresNonNegative(a *Matrix, y []float64) ([]float64, error) {
	active := make([]bool, a.Cols) // true = clamped to zero
	for iter := 0; iter <= a.Cols; iter++ {
		// Build reduced design matrix over free columns.
		free := make([]int, 0, a.Cols)
		for j := 0; j < a.Cols; j++ {
			if !active[j] {
				free = append(free, j)
			}
		}
		if len(free) == 0 {
			return make([]float64, a.Cols), nil
		}
		red := NewMatrix(a.Rows, len(free))
		for i := 0; i < a.Rows; i++ {
			for fj, j := range free {
				red.Set(i, fj, a.At(i, j))
			}
		}
		x, err := LeastSquares(red, y)
		if err != nil {
			return nil, err
		}
		worst, worstIdx := 0.0, -1
		for fj, v := range x {
			if v < worst {
				worst, worstIdx = v, free[fj]
			}
		}
		if worstIdx < 0 {
			out := make([]float64, a.Cols)
			for fj, j := range free {
				out[j] = x[fj]
			}
			return out, nil
		}
		active[worstIdx] = true
	}
	return nil, fmt.Errorf("linalg: NNLS failed to converge")
}
