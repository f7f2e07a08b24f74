package featred

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/nn/nntest"
	"repro/internal/parallel"
)

// fitShapedData mimics the operator dataset of a QCFE fit: one-hot blocks
// (operator type, table), flags, a few integer-valued columns with heavy
// ties, continuous columns, and two constant columns, 46 wide. Every
// distinct row appears `copies` times, so some (sample, reference) pairs
// are identical and every pre-activation difference in them is exactly 0.
func fitShapedData(n, copies int, seed int64) *Dataset {
	const dim = 46
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Names: make([]string, dim)}
	for len(d.X) < n {
		x := make([]float64, dim)
		op, table := rng.Intn(8), rng.Intn(10)
		x[op] = 1
		x[8+table] = 1
		for k := 18; k < 24; k++ { // flags
			x[k] = float64(rng.Intn(2))
		}
		for k := 24; k < 32; k++ { // small integers: ties
			x[k] = float64(rng.Intn(4))
		}
		for k := 32; k < 44; k++ { // continuous
			x[k] = rng.Float64() * float64(k-30)
		}
		// x[44] and x[45] stay 0: constant columns.
		y := math.Log1p(float64(op+1)*x[32] + float64(table)*x[24] + 3*x[18])
		for c := 0; c < copies && len(d.X) < n; c++ {
			d.X = append(d.X, x)
			d.Y = append(d.Y, y)
		}
	}
	return d
}

// fitRepeatData is fitShapedData with the repeats of a fit's operator
// dataset, whose rows are one-hots and coarse numerics: about half of the n
// rows are copies, drawn from n/10 heavy rows so that about a quarter of
// 250 references repeat too. The rows are shuffled, so a row's copies
// straddle sample rounds and the end of the forward chunk.
func fitRepeatData(n int, seed int64) *Dataset {
	d := fitShapedData(n/2, 1, seed)
	rng := rand.New(rand.NewSource(seed))
	heavy := max(n/10, 1)
	for len(d.X) < n {
		i := rng.Intn(heavy)
		d.X = append(d.X, d.X[i])
		d.Y = append(d.Y, d.Y[i])
	}
	rng.Shuffle(n, func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
	return d
}

// twiceData is n/2 fit-shaped rows followed by the same rows in another
// order, so every row is live across the middle of the data.
func twiceData(n int, seed int64) *Dataset {
	d := fitShapedData(n/2, 1, seed)
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(n / 2) {
		d.X = append(d.X, d.X[i])
		d.Y = append(d.Y, d.Y[i])
	}
	return d
}

// repeatStats describes the repeats DiffPropScores finds in a dataset: how
// many samples and references repeat an earlier row, the most rows live
// between two of their copies at once, the bytes of contributions one kept
// row takes, and whether a row has copies on both sides of the end of the
// first forward chunk.
type repeatStats struct {
	samples, refs, live, rowBytes int
	straddlesChunk                bool
}

// repeatsOf finds the repeats of X and of the nRef references seed draws.
func repeatsOf(X [][]float64, nRef int, seed int64) repeatStats {
	n := len(X)
	nRef = min(nRef, n)
	refIdx := rand.New(rand.NewSource(seed)).Perm(n)[:nRef]
	order, first, last := make([]int32, n), make([]int32, n), make([]int32, n)
	copies(order[:nRef], first[:nRef], nil, func(i int) []float64 { return X[refIdx[i]] })
	var st repeatStats
	for i, f := range first[:nRef] {
		if int(f) < i {
			st.refs++
		}
	}
	st.rowBytes = 8 * (nRef - st.refs) * len(X[0])
	copies(order, first, last, func(i int) []float64 { return X[i] })
	for i := range first {
		if int(first[i]) < i {
			st.samples++
		}
		if int(first[i]) < forwardChunk && int(last[i]) >= forwardChunk {
			st.straddlesChunk = true
		}
	}
	st.live = liveRepeats(first, last)
	return st
}

// withWorkers runs fn with the process-wide default worker count set to w.
func withWorkers(t *testing.T, w int, fn func()) {
	t.Helper()
	parallel.SetDefaultWorkers(w)
	defer parallel.SetDefaultWorkers(0)
	fn()
}

// requireBitwiseEqual fails unless got and want have the same bits in
// every element (so +0 and −0, and NaN payloads, are told apart).
func requireBitwiseEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, reference has %d", what, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: score[%d] = %v (%#x), reference %v (%#x)",
				what, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// tieBranches counts the rescale's two |Δz| ≤ 1e-9 fallbacks over every
// (sample, reference, hidden unit) the reference loop visits: active side
// (derivative 1) and inactive side (0).
func tieBranches(m *nn.MLP, X [][]float64, nRef int, seed int64) (active, inactive int) {
	refIdx := rand.New(rand.NewSource(seed)).Perm(len(X))[:min(nRef, len(X))]
	refs := make([]*nntest.Cache, len(refIdx))
	for i, ri := range refIdx {
		_, refs[i] = nntest.Forward(m, X[ri])
	}
	for _, x := range X {
		_, cx := nntest.Forward(m, x)
		for _, cr := range refs {
			for li := 0; li < len(m.Layers)-1; li++ {
				for i, zx := range cx.Pre[li] {
					if math.Abs(zx-cr.Pre[li][i]) <= 1e-9 {
						if zx > 0 {
							active++
						} else {
							inactive++
						}
					}
				}
			}
		}
	}
	return active, inactive
}

// TestDiffPropMatchesReference requires DiffPropScores to reproduce the
// one-pair-at-a-time refDiffPropScores bit for bit, at 1, 2 and 7
// workers, on the shape of a real fit and on the edges of its blocking.
func TestDiffPropMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		d          *Dataset
		hidden     int
		nRef       int
		wantTies   bool
		shortSkips bool
		check      func(*testing.T, repeatStats)
	}{
		// 46 × 32 × 32 × 1 with 250 references over 1 563 samples: two
		// forward chunks, neither a multiple of diffBlock.
		{name: "fit shape", d: fitShapedData(1563, 1, 1), hidden: 32, nRef: 250, shortSkips: true},
		// The same shape with the fit's repeats: a repeated sample reads
		// contributions priced in its own round or kept from an earlier
		// one, a repeated reference is priced once, and the fold must
		// still add every pair in order.
		{name: "fit repeats", d: fitRepeatData(1563, 1), hidden: 32, nRef: 250, shortSkips: true,
			check: func(t *testing.T, st repeatStats) {
				if st.samples < 1563*2/5 || st.refs < 250/5 || !st.straddlesChunk {
					t.Fatalf("fixture: %+v, want about half the samples and a quarter of the references repeated, and a row across the chunk end", st)
				}
			}},
		// Every row twice, far apart: more rows are live at once than
		// diffKeepBytes holds, so some repeats are priced again.
		{name: "repeats past the cap", d: twiceData(600, 4), hidden: 32, nRef: 250, shortSkips: true,
			check: func(t *testing.T, st repeatStats) {
				if st.live*st.rowBytes <= diffKeepBytes {
					t.Fatalf("fixture: %d live rows of %d bytes fit under diffKeepBytes (%d)", st.live, st.rowBytes, diffKeepBytes)
				}
			}},
		// More references asked for than there are samples.
		{name: "nRef > len(X)", d: fitShapedData(30, 1, 2), hidden: 8, nRef: 100},
		// One sample past a chunk and not a multiple of the block.
		{name: "chunk + 1", d: syntheticData(forwardChunk+1, 7, 3, 3), hidden: 6, nRef: 5},
		{name: "odd small", d: syntheticData(diffBlock*3+5, 5, 2, 4), hidden: 4, nRef: 9},
		// Each row three times: identical pairs take both |Δz| ≤ 1e-9
		// fallbacks.
		{name: "exact ties", d: fitShapedData(301, 3, 5), hidden: 12, nRef: 40, wantTies: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.shortSkips && testing.Short() {
				t.Skip("the 1 563 × 250 reference loop takes seconds")
			}
			if tc.check != nil {
				st := repeatsOf(tc.d.X, tc.nRef, 11)
				t.Logf("repeats: %+v", st)
				tc.check(t, st)
			}
			m := TrainProbe(tc.d, tc.hidden, 3, 7)
			if tc.wantTies {
				active, inactive := tieBranches(m, tc.d.X, tc.nRef, 11)
				if active == 0 || inactive == 0 {
					t.Fatalf("ties reach the active fallback %d times and the inactive one %d times, want both", active, inactive)
				}
			}
			want := refDiffPropScores(m, tc.d.X, tc.nRef, 11)
			for _, w := range []int{1, 2, 7} {
				withWorkers(t, w, func() {
					requireBitwiseEqual(t, tc.name, DiffPropScores(m, tc.d.X, tc.nRef, 11), want)
				})
			}
		})
	}
}

// TestDiffPropAllocsIndependentOfRefs holds DiffPropScores to a fixed
// number of allocations whatever the reference count: its per-worker
// multiplier matrices are sized once and reused for every pair, so the
// count depends on the layer count and the number of sample rounds, never
// on nRef.
func TestDiffPropAllocsIndependentOfRefs(t *testing.T) {
	d := syntheticData(200, 9, 3, 6)
	m := TrainProbe(d, 8, 2, 6)
	withWorkers(t, 1, func() {
		allocs := func(nRef int) float64 {
			return testing.AllocsPerRun(3, func() { DiffPropScores(m, d.X, nRef, 1) })
		}
		few, many := allocs(4), allocs(160)
		t.Logf("%v allocations with 4 references, %v with 160", few, many)
		if many != few {
			t.Fatalf("%v allocations with 160 references, %v with 4: allocations grow with nRef", many, few)
		}
	})
}

// TestGradientScoresMatchesReference requires GradientScores to reproduce
// the per-sample refGradientScores bit for bit — on the Figure 6 probe
// shape (46 × 32 × 32 × 1 over 1 563 operator samples, two forward
// chunks), past a chunk edge, and with repeated rows — and to leave the
// probe's weights and accumulated gradients exactly as it found them.
func TestGradientScoresMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		d      *Dataset
		hidden int
	}{
		{name: "fit shape", d: fitShapedData(1563, 1, 1), hidden: 32},
		{name: "chunk + 1", d: syntheticData(forwardChunk+1, 7, 3, 3), hidden: 6},
		{name: "exact ties", d: fitShapedData(301, 3, 5), hidden: 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := TrainProbe(tc.d, tc.hidden, 3, 7)
			// Leave nonzero accumulated gradients behind, so a kernel
			// that wrote them would show.
			for _, l := range m.Layers {
				for i := range l.GW {
					l.GW[i] = float64(i%5) - 2
				}
				for i := range l.GB {
					l.GB[i] = float64(i%3) + 0.5
				}
			}
			before := m.Clone()
			for li, l := range m.Layers {
				copy(before.Layers[li].GW, l.GW)
				copy(before.Layers[li].GB, l.GB)
			}
			want := refGradientScores(m, tc.d.X)
			requireBitwiseEqual(t, tc.name, GradientScores(m, tc.d.X), want)
			for li, l := range m.Layers {
				b := before.Layers[li]
				for _, p := range []struct {
					what      string
					got, want []float64
				}{{"W", l.W, b.W}, {"B", l.B, b.B}, {"GW", l.GW, b.GW}, {"GB", l.GB, b.GB}} {
					requireBitwiseEqual(t, fmt.Sprintf("layer %d %s", li, p.what), p.got, p.want)
				}
			}
		})
	}
	if got := GradientScores(TrainProbe(syntheticData(10, 3, 1, 1), 4, 1, 1), nil); got != nil {
		t.Fatalf("GradientScores of no samples = %v, want nil", got)
	}
}
