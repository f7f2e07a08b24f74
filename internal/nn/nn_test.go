package nn_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/nn/nntest"
)

func TestLinearForwardKnown(t *testing.T) {
	l := &nn.Linear{In: 2, Out: 1, W: []float64{2, 3}, B: []float64{1}, GW: make([]float64, 2), GB: make([]float64, 1)}
	y := nntest.LinearForward(l, []float64{4, 5})
	if y[0] != 2*4+3*5+1 {
		t.Fatalf("forward = %v", y)
	}
}

func TestLinearDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	nntest.LinearForward(nn.NewLinear(3, 1, rand.New(rand.NewSource(1))), []float64{1, 2})
}

func TestLinearBackwardMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := nn.NewLinear(4, 3, rng)
	x := []float64{0.5, -1, 2, 0.1}
	// Scalar loss = sum(y).
	dy := []float64{1, 1, 1}
	l.ZeroGrad()
	dx := nntest.LinearBackward(l, x, dy)

	const eps = 1e-6
	loss := func() float64 {
		y := nntest.LinearForward(l, x)
		return y[0] + y[1] + y[2]
	}
	for i := range l.W {
		orig := l.W[i]
		l.W[i] = orig + eps
		up := loss()
		l.W[i] = orig - eps
		dn := loss()
		l.W[i] = orig
		num := (up - dn) / (2 * eps)
		if math.Abs(num-l.GW[i]) > 1e-5 {
			t.Fatalf("dW[%d]: analytic %v vs numeric %v", i, l.GW[i], num)
		}
	}
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		up := loss()
		x[i] = orig - eps
		dn := loss()
		x[i] = orig
		num := (up - dn) / (2 * eps)
		if math.Abs(num-dx[i]) > 1e-5 {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, dx[i], num)
		}
	}
}

func TestMLPBackwardMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := nn.NewMLP([]int{5, 8, 8, 1}, rng)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	m.ZeroGrad()
	_, c := nntest.Forward(m, x)
	nntest.Backward(m, c, []float64{1})

	const eps = 1e-6
	l0 := m.Layers[0]
	for i := 0; i < len(l0.W); i += 7 {
		orig := l0.W[i]
		l0.W[i] = orig + eps
		up := nntest.Predict(m, x)[0]
		l0.W[i] = orig - eps
		dn := nntest.Predict(m, x)[0]
		l0.W[i] = orig
		num := (up - dn) / (2 * eps)
		if math.Abs(num-l0.GW[i]) > 1e-4 {
			t.Fatalf("layer0 dW[%d]: analytic %v vs numeric %v", i, l0.GW[i], num)
		}
	}
}

func TestInputGradientMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := nn.NewMLP([]int{4, 6, 1}, rng)
	x := []float64{0.3, -0.7, 1.1, 0.9}
	g := nntest.InputGradient(m, x, 0)
	const eps = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		up := nntest.Predict(m, x)[0]
		x[i] = orig - eps
		dn := nntest.Predict(m, x)[0]
		x[i] = orig
		num := (up - dn) / (2 * eps)
		if math.Abs(num-g[i]) > 1e-4 {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, g[i], num)
		}
	}
}

func TestMLPLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := nn.NewMLP([]int{2, 16, 1}, rng)
	opt := nn.NewAdam(0.01)
	layers := nn.LayersOf(m)
	target := func(x []float64) float64 { return 3*x[0] - 2*x[1] + 1 }
	for epoch := 0; epoch < 400; epoch++ {
		batch := 32
		for b := 0; b < batch; b++ {
			x := []float64{rng.NormFloat64(), rng.NormFloat64()}
			y, c := nntest.Forward(m, x)
			diff := y[0] - target(x)
			nntest.Backward(m, c, []float64{2 * diff})
		}
		opt.Step(layers, batch)
	}
	var mse float64
	n := 100
	for i := 0; i < n; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		d := nntest.Predict(m, x)[0] - target(x)
		mse += d * d
	}
	mse /= float64(n)
	if mse > 0.05 {
		t.Fatalf("MLP failed to fit linear function: mse=%v", mse)
	}
}

func TestMLPLearnsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := nn.NewMLP([]int{1, 32, 32, 1}, rng)
	opt := nn.NewAdam(0.005)
	layers := nn.LayersOf(m)
	target := func(x float64) float64 { return math.Abs(x) } // kinked
	for epoch := 0; epoch < 600; epoch++ {
		batch := 32
		for b := 0; b < batch; b++ {
			x := rng.Float64()*4 - 2
			y, c := nntest.Forward(m, []float64{x})
			diff := y[0] - target(x)
			nntest.Backward(m, c, []float64{2 * diff})
		}
		opt.Step(layers, batch)
	}
	var mse float64
	n := 200
	for i := 0; i < n; i++ {
		x := rng.Float64()*4 - 2
		d := nntest.Predict(m, []float64{x})[0] - target(x)
		mse += d * d
	}
	mse /= float64(n)
	if mse > 0.01 {
		t.Fatalf("MLP failed to fit |x|: mse=%v", mse)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := nn.NewMLP([]int{3, 4, 1}, rng)
	c := m.Clone()
	x := []float64{1, 2, 3}
	before := nntest.Predict(c, x)[0]
	m.Layers[0].W[0] += 10
	if nntest.Predict(c, x)[0] != before {
		t.Fatalf("clone shares weights with original")
	}
	if nntest.Predict(m, x)[0] == before {
		t.Fatalf("original should have changed")
	}
}

func TestDeterministicInit(t *testing.T) {
	a := nn.NewMLP([]int{4, 8, 1}, rand.New(rand.NewSource(9)))
	b := nn.NewMLP([]int{4, 8, 1}, rand.New(rand.NewSource(9)))
	for i := range a.Layers[0].W {
		if a.Layers[0].W[i] != b.Layers[0].W[i] {
			t.Fatalf("same-seed init differs")
		}
	}
}

func TestNumParams(t *testing.T) {
	m := nn.NewMLP([]int{3, 5, 2}, rand.New(rand.NewSource(1)))
	want := (3*5 + 5) + (5*2 + 2)
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
	if m.InDim() != 3 || m.OutDim() != 2 {
		t.Fatalf("dims = %d,%d", m.InDim(), m.OutDim())
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Single-parameter layer: minimize (w - 4)^2.
	l := &nn.Linear{In: 1, Out: 1, W: []float64{0}, B: []float64{0}, GW: make([]float64, 1), GB: make([]float64, 1)}
	opt := nn.NewAdam(0.1)
	for i := 0; i < 500; i++ {
		l.GW[0] = 2 * (l.W[0] - 4)
		opt.Step([]*nn.Linear{l}, 1)
	}
	if math.Abs(l.W[0]-4) > 0.01 {
		t.Fatalf("Adam did not converge: w=%v", l.W[0])
	}
}

// Property: ReLU hidden layers imply f(x) is piecewise-linear: doubling a
// positive-activation input region keeps outputs finite; more useful —
// forward never produces NaN for finite inputs.
func TestForwardFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := nn.NewMLP([]int{6, 10, 10, 1}, rng)
		x := make([]float64, 6)
		for i := range x {
			x[i] = rng.NormFloat64() * 100
		}
		y := nntest.Predict(m, x)
		return !math.IsNaN(y[0]) && !math.IsInf(y[0], 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
