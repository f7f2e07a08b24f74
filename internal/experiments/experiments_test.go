package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// One quick suite shared by all tests (pools are cached inside).
var testSuite = NewSuite(QuickParams(), nil)

func TestFigure1SpreadAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment grid; skipped in -short (CI) mode")
	}
	t.Parallel()
	var buf bytes.Buffer
	s := NewSuite(QuickParams(), &buf)
	cells, err := s.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 10 { // 2 benchmarks × 5 envs
		t.Fatalf("cells = %d", len(cells))
	}
	spread := Fig1Spread(cells)
	for _, bench := range []string{"tpch", "sysbench"} {
		if spread[bench] < 1.5 {
			t.Errorf("%s environment spread %.2fx, want ≥1.5x (paper: 2–3x)", bench, spread[bench])
		}
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatalf("missing printed header")
	}
}

func TestTable4SysbenchShape(t *testing.T) {
	t.Parallel()
	rows, err := testSuite.Table4("sysbench")
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(QuickParams().Scales) * len(table4Methods)
	if len(rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(rows), wantRows)
	}
	byModel := map[string]Table4Row{}
	for _, r := range rows {
		if r.Scale == QuickParams().Scales[len(QuickParams().Scales)-1] {
			byModel[r.Model] = r
		}
	}
	// Learned estimators must beat the analytic PGSQL baseline on q-error.
	pg := byModel["PGSQL"]
	for _, m := range []string{"QCFE(mscn)", "MSCN"} {
		if byModel[m].MeanQ >= pg.MeanQ {
			t.Errorf("%s mean q-error %.2f not better than PGSQL %.2f", m, byModel[m].MeanQ, pg.MeanQ)
		}
		if byModel[m].Pearson <= pg.Pearson {
			t.Errorf("%s pearson %.3f not better than PGSQL %.3f", m, byModel[m].Pearson, pg.Pearson)
		}
	}
	// Per-query q-errors recorded for Figure 5.
	if len(pg.QErrors) == 0 {
		t.Fatalf("q-errors not recorded")
	}
	// Cached: second call returns identical slice.
	again, err := testSuite.Table4("sysbench")
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &rows[0] {
		t.Fatalf("Table4 cache miss")
	}
}

func TestFigure5FromTable4(t *testing.T) {
	t.Parallel()
	rows, err := testSuite.Figure5("sysbench")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(QuickParams().Scales)*4 { // 4 learned models
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.P25 > r.Median || r.Median > r.P75 || r.P75 > r.P90 {
			t.Fatalf("quartiles out of order: %+v", r)
		}
		if r.P25 < 1 {
			t.Fatalf("q-error below 1: %+v", r)
		}
	}
}

func TestFigure6Ablation(t *testing.T) {
	t.Parallel()
	rows, err := testSuite.Figure6("sysbench")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("variants = %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Variant] = true
		if r.MeanQ < 1 {
			t.Fatalf("impossible mean q-error %v", r.MeanQ)
		}
	}
	for _, want := range []string{"FSO", "FST", "FSO+FR", "FSO+GD", "FSO+Greedy"} {
		if !names[want] {
			t.Fatalf("missing variant %s", want)
		}
	}
}

func TestFigure7ReductionCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment grid; skipped in -short (CI) mode")
	}
	t.Parallel()
	rows, err := testSuite.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("operators probed = %d, want ≥3", len(rows))
	}
	greedy, _, fr := ReductionSummary(rows)
	// The paper's shape: FR reduces far more than Greedy.
	if fr <= greedy {
		t.Errorf("FR reduction %.1f%% not above Greedy %.1f%%", 100*fr, 100*greedy)
	}
	if fr < 0.10 {
		t.Errorf("FR reduction %.1f%% too small (paper ≈41%%)", 100*fr)
	}
	for _, r := range rows {
		if r.DropFR < 0 || r.DropFR > r.TotalDim {
			t.Fatalf("bogus drop count: %+v", r)
		}
	}
}

func TestTable5TemplateScales(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment grid; skipped in -short (CI) mode")
	}
	t.Parallel()
	// The paper runs Table V on the analytical benchmarks (TPC-H and
	// job-light) where original queries are expensive multi-joins; the
	// simplified-template saving does not apply to Sysbench's point reads.
	rows, err := testSuite.Table5("imdb", []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // FSO + 2 FST scales
		t.Fatalf("rows = %d", len(rows))
	}
	fso := rows[0]
	if fso.Variant != "FSO" || fso.CollectionMs <= 0 {
		t.Fatalf("FSO row wrong: %+v", fso)
	}
	for _, r := range rows[1:] {
		if r.CollectionMs >= fso.CollectionMs {
			t.Errorf("FST(%d) collection %.1f ms not cheaper than FSO %.1f ms",
				r.Scale, r.CollectionMs, fso.CollectionMs)
		}
	}
}

func TestTable6ReferenceRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment grid; skipped in -short (CI) mode")
	}
	// The claim is a time, so the arms are far apart: FR's |R|-dependent
	// share is small at the quick grid (alone, 20 and 60 references read
	// 0.095 s and 0.117 s, and beside another package's tests 60 read
	// faster than 20 in three runs of six), while 500 read 0.244 s. Each
	// row is the fastest of paired rounds (table6.go), so no single stall
	// decides the order (docs/TESTING.md).
	rows, err := testSuite.Table6([]int{20, 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].RuntimeSec <= rows[0].RuntimeSec {
		t.Errorf("FR runtime should grow with |R|: %v vs %v", rows[0].RuntimeSec, rows[1].RuntimeSec)
	}
	for _, r := range rows {
		if r.ReductionRatio <= 0 || r.ReductionRatio >= 1 {
			t.Errorf("reduction ratio %v out of range", r.ReductionRatio)
		}
	}
}

func TestTable7Transfer(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment grid; skipped in -short (CI) mode")
	}
	rows, err := testSuite.Table7("sysbench")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var basis, fso, fst *Table7Row
	for i := range rows {
		switch rows[i].Model {
		case "basis":
			basis = &rows[i]
		case "trans-FSO":
			fso = &rows[i]
		case "trans-FST":
			fst = &rows[i]
		}
	}
	if basis == nil || fso == nil || fst == nil {
		t.Fatalf("missing variants: %+v", rows)
	}
	// Transfer must cost less training than training from scratch: it
	// retrains a quarter of the basis budget, as the paper retrains 200
	// of 800 iterations. The iterations carry the claim; two single
	// wall-clock draws of a few milliseconds each invert whenever another
	// process takes the core (docs/TESTING.md).
	want := max(basis.Iters/4, 1)
	if want >= basis.Iters || fso.Iters != want || fst.Iters != want {
		t.Errorf("transfer retrains fso=%d fst=%d iterations of the basis model's %d, want %d",
			fso.Iters, fst.Iters, basis.Iters, want)
	}
}

func TestFigure8Convergence(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment grid; skipped in -short (CI) mode")
	}
	t.Parallel()
	series, err := testSuite.Figure8("sysbench")
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Curve) < 4 {
			t.Fatalf("%s curve too short: %v", s.Model, s.Curve)
		}
	}
}

// TestFigure8DirectIsTable7Basis: Figure 8's "direct" curve and Table
// VII's "basis" row are one model, trained from scratch on h2. Trained to
// the full budget in one chunk, the curve's only point is the row's test
// mean q-error, bit for bit.
func TestFigure8DirectIsTable7Basis(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment grid; skipped in -short (CI) mode")
	}
	rows, err := testSuite.Table7("sysbench")
	if err != nil {
		t.Fatal(err)
	}
	series, err := testSuite.figure8Impl("sysbench", testSuite.trainIters("sysbench"))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Model != "basis" || series[0].Model != "direct" {
		t.Fatalf("row %q, series %q: want basis and direct first", rows[0].Model, series[0].Model)
	}
	direct := series[0].Curve
	if len(direct) != 1 || math.Float64bits(direct[0]) != math.Float64bits(rows[0].MeanQ) {
		t.Fatalf("direct curve %v, want [%v] (Table VII basis MeanQ)", direct, rows[0].MeanQ)
	}
}
