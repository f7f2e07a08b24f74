package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatalf("Set failed")
	}
	r := m.Row(1)
	r[0] = 100 // must not alias
	if m.At(1, 0) == 100 {
		t.Fatalf("Row aliases backing store")
	}
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	tr := m.T()
	if tr.Rows != 2 || tr.Cols != 3 {
		t.Fatalf("transpose dims wrong: %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on dimension mismatch")
		}
	}()
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	a.Mul(b)
}

func TestSolveKnownSystem(t *testing.T) {
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3
	if !almostEqual(x[0], 1, 1e-9) || !almostEqual(x[1], 3, 1e-9) {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-9) || !almostEqual(x[1], 2, 1e-9) {
		t.Fatalf("Solve = %v, want [3 2]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatalf("expected singular-matrix error")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 3x + 2 exactly.
	a := fromRows([][]float64{{1, 1}, {2, 1}, {3, 1}, {4, 1}})
	y := []float64{5, 8, 11, 14}
	x, err := LeastSquares(a, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-4) || !almostEqual(x[1], 2, 1e-4) {
		t.Fatalf("LeastSquares = %v, want [3 2]", x)
	}
}

func TestLeastSquaresOverdeterminedNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		x := rng.Float64() * 100
		rows[i] = []float64{x, 1}
		y[i] = 0.5*x + 10 + rng.NormFloat64()*0.01
	}
	coef, err := LeastSquares(fromRows(rows), y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(coef[0], 0.5, 1e-2) || !almostEqual(coef[1], 10, 0.1) {
		t.Fatalf("coef = %v, want ≈[0.5 10]", coef)
	}
}

func TestLeastSquaresCollinear(t *testing.T) {
	// Constant column duplicated: classic collinearity that must not blow up
	// thanks to ridge regularization.
	a := fromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
	x, err := LeastSquares(a, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	got := x[0] + x[1]
	if !almostEqual(got, 4, 1e-3) {
		t.Fatalf("collinear fit predicts %v, want 4", got)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(NewMatrix(0, 0), nil); err == nil {
		t.Fatalf("expected error on empty system")
	}
	if _, err := LeastSquares(NewMatrix(2, 1), []float64{1}); err == nil {
		t.Fatalf("expected error on row/target mismatch")
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// Data generated by y = 2*x0 with a second column that would get a
	// negative coefficient in unconstrained LS.
	rng := rand.New(rand.NewSource(11))
	rows := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range rows {
		x0 := rng.Float64() * 10
		rows[i] = []float64{x0, -x0 + rng.NormFloat64()*0.001}
		y[i] = 2 * x0
	}
	coef, err := LeastSquaresNonNegative(fromRows(rows), y)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range coef {
		if c < 0 {
			t.Fatalf("coef[%d] = %v negative", j, c)
		}
	}
}

func TestNNLSExactNonNegative(t *testing.T) {
	// When the unconstrained solution is already non-negative, NNLS must
	// match plain least squares.
	a := fromRows([][]float64{{1, 1}, {2, 1}, {3, 1}, {5, 1}})
	y := []float64{3, 5, 7, 11} // y = 2x + 1
	coef, err := LeastSquaresNonNegative(a, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(coef[0], 2, 1e-4) || !almostEqual(coef[1], 1, 1e-4) {
		t.Fatalf("NNLS = %v, want [2 1]", coef)
	}
}

// Property: Solve returns x with a·x = b for random well-conditioned systems.
func TestSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance keeps the system well conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+5)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res := a.MulVec(x)
		for i := range res {
			if !almostEqual(res[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AᵀT)ᵀ == A for random matrices.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		a := NewMatrix(r, c)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		tt := a.T().T()
		if tt.Rows != a.Rows || tt.Cols != a.Cols {
			return false
		}
		for i := range a.Data {
			if a.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// fromRows builds a matrix from a slice of equally sized rows.
func fromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: got %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}
