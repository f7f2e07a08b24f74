package featred

import (
	"math"
	"math/rand"
	"testing"
)

// syntheticData builds a dataset where only the first `useful` of `dim`
// features influence the target; the rest are pure noise. This is the
// controlled setting in which any sound reduction method must separate
// signal from noise.
func syntheticData(n, dim, useful int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < dim; i++ {
		d.Names = append(d.Names, "f")
	}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		var y float64
		for k := 0; k < dim; k++ {
			x[k] = rng.Float64() * 2
			if k < useful {
				y += float64(k+1) * x[k]
			}
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, math.Log1p(y))
	}
	return d
}

// oneHotData mixes a discrete one-hot block (first `classes` dims) with a
// numeric dim; the one-hot class strongly shifts the target. Gradient
// methods see zero gradient on constant-per-sample one-hot dims only in
// dead-ReLU regions; diff-prop must rank the one-hots highly regardless.
func oneHotData(n, classes int, noise int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	dim := classes + 1 + noise
	for i := 0; i < dim; i++ {
		d.Names = append(d.Names, "f")
	}
	weights := []float64{1, 5, 25}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		c := rng.Intn(classes)
		x[c] = 1
		x[classes] = rng.Float64()
		for k := 0; k < noise; k++ {
			x[classes+1+k] = rng.Float64()
		}
		y := weights[c%len(weights)]*3 + 2*x[classes]
		d.X = append(d.X, x)
		d.Y = append(d.Y, math.Log1p(y))
	}
	return d
}

func TestTrainProbeFits(t *testing.T) {
	d := syntheticData(500, 6, 2, 1)
	m := TrainProbe(d, 16, 60, 1)
	qe := QErrorOf(m, d, nil)
	if qe > 1.3 {
		t.Fatalf("probe failed to fit: q-error %v", qe)
	}
}

func TestDiffPropSeparatesSignalFromNoise(t *testing.T) {
	d := syntheticData(600, 10, 3, 2)
	m := TrainProbe(d, 16, 80, 2)
	scores := DiffPropScores(m, d.X, 20, 3)
	if len(scores) != 10 {
		t.Fatalf("score dim = %d", len(scores))
	}
	// Every useful feature must outscore every noise feature.
	minUseful, maxNoise := math.Inf(1), 0.0
	for k, s := range scores {
		if k < 3 {
			if s < minUseful {
				minUseful = s
			}
		} else if s > maxNoise {
			maxNoise = s
		}
	}
	if minUseful <= maxNoise {
		t.Fatalf("diff-prop failed to separate: useful min %v vs noise max %v (scores %v)",
			minUseful, maxNoise, scores)
	}
}

func TestDiffPropHandlesOneHot(t *testing.T) {
	d := oneHotData(600, 3, 5, 4)
	m := TrainProbe(d, 16, 80, 4)
	scores := DiffPropScores(m, d.X, 25, 5)
	// The one-hot class dims and the numeric dim must outrank the noise.
	var minSignal float64 = math.Inf(1)
	var maxNoise float64
	for k, s := range scores {
		if k <= 3 {
			if s < minSignal {
				minSignal = s
			}
		} else if s > maxNoise {
			maxNoise = s
		}
	}
	if minSignal <= maxNoise {
		t.Fatalf("one-hot dims not ranked above noise: %v", scores)
	}
}

func TestGradientScoresComputed(t *testing.T) {
	d := syntheticData(300, 6, 2, 5)
	m := TrainProbe(d, 16, 50, 5)
	scores := GradientScores(m, d.X)
	if len(scores) != 6 {
		t.Fatalf("dim = %d", len(scores))
	}
	// Gradients of the two useful features should dominate on average.
	if scores[0]+scores[1] < scores[4]+scores[5] {
		t.Fatalf("gradient scores look wrong: %v", scores)
	}
}

func TestGreedyReduceDropsNoise(t *testing.T) {
	d := syntheticData(300, 8, 2, 6).Subsample(200, 1)
	m := TrainProbe(d, 16, 60, 6)
	mask := GreedyReduce(m, d)
	if !mask[0] || !mask[1] {
		t.Fatalf("greedy dropped a useful feature: %v", mask)
	}
	// Greedy is conservative (the paper measures only ~1.2% reduction);
	// just require it never *helps* to drop the strongest feature.
	if CountKept(mask) == 0 {
		t.Fatalf("greedy removed everything")
	}
}

// TestMaskFromScores: the cut is Algorithm 3's score > 0. A score of 0 is
// dropped, the smallest positive float is kept, and no score's keep
// depends on the largest one.
func TestMaskFromScores(t *testing.T) {
	scores := []float64{10, 0.001, 5, 0, math.SmallestNonzeroFloat64}
	want := []bool{true, true, true, false, true}
	check := func(scores []float64) {
		t.Helper()
		mask := MaskFromScores(scores)
		for i := range want {
			if mask[i] != want[i] {
				t.Fatalf("MaskFromScores(%v) = %v, want %v", scores, mask, want)
			}
		}
	}
	check(scores)
	scores[0] = math.MaxFloat64
	check(scores)
	scores[0] = math.SmallestNonzeroFloat64
	check(scores)
}

func TestApplyAndRatio(t *testing.T) {
	mask := []bool{true, false, true}
	got := ApplyInto(mask, []float64{1, 2, 3}, make([]float64, 0, CountKept(mask)))
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("ApplyInto = %v", got)
	}
	if r := ReductionRatio(mask); math.Abs(r-1.0/3) > 1e-12 {
		t.Fatalf("ratio = %v", r)
	}
	dropped := DroppedNames(mask, []string{"a", "b", "c"})
	if len(dropped) != 1 || dropped[0] != "b" {
		t.Fatalf("DroppedNames = %v", dropped)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]bool{true, false}, 2); err != nil {
		t.Fatalf("valid mask rejected: %v", err)
	}
	if err := Validate([]bool{true}, 2); err == nil {
		t.Fatalf("width mismatch accepted")
	}
	if err := Validate([]bool{false, false}, 2); err == nil {
		t.Fatalf("empty mask accepted")
	}
}

func TestSubsampleDeterministic(t *testing.T) {
	d := syntheticData(100, 4, 2, 7)
	a := d.Subsample(10, 42)
	b := d.Subsample(10, 42)
	for i := range a.X {
		for k := range a.X[i] {
			if a.X[i][k] != b.X[i][k] {
				t.Fatalf("subsample not deterministic")
			}
		}
	}
	if len(a.X) != 10 {
		t.Fatalf("size = %d", len(a.X))
	}
	full := d.Subsample(1000, 42)
	if len(full.X) != 100 {
		t.Fatalf("oversized subsample should return all data")
	}
}

// TestReducedModelStillAccurate: end to end, FR drops exactly the columns
// that hold one value across the data, and a probe retrained on the kept
// columns stays accurate.
func TestReducedModelStillAccurate(t *testing.T) {
	const varying = 12
	consts := []float64{0, 1, 0.5, 7}
	d := syntheticData(600, varying, 3, 8)
	for i := range d.X {
		d.X[i] = append(d.X[i], consts...)
	}
	for range consts {
		d.Names = append(d.Names, "const")
	}
	probe := TrainProbe(d, 16, 60, 8)
	mask := MaskFromScores(DiffPropScores(probe, d.X, 20, 8))
	for k, keep := range mask {
		if keep != (k < varying) {
			t.Fatalf("mask = %v, want the first %d of %d columns kept", mask, varying, d.Dim())
		}
	}
	red := &Dataset{Y: d.Y}
	for _, x := range d.X {
		red.X = append(red.X, ApplyInto(mask, x, make([]float64, 0, CountKept(mask))))
	}
	for i := 0; i < CountKept(mask); i++ {
		red.Names = append(red.Names, "f")
	}
	m2 := TrainProbe(red, 16, 60, 8)
	qe := QErrorOf(m2, red, nil)
	if qe > 1.3 {
		t.Fatalf("reduced model q-error %v", qe)
	}
}

func TestQErrorOfWithMask(t *testing.T) {
	d := syntheticData(100, 4, 2, 9)
	m := TrainProbe(d, 8, 30, 9)
	full := QErrorOf(m, d, nil)
	allKeep := QErrorOf(m, d, []bool{true, true, true, true})
	if math.Abs(full-allKeep) > 1e-12 {
		t.Fatalf("all-keep mask should equal nil mask: %v vs %v", full, allKeep)
	}
	masked := QErrorOf(m, d, []bool{false, true, true, true})
	if masked <= full {
		t.Fatalf("masking the strongest feature should hurt: %v vs %v", masked, full)
	}
}
