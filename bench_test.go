// bench_test.go regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Each benchmark prints the same rows or
// series the paper reports (via the experiment suite's writer) and can be
// run individually:
//
//	go test -bench=BenchmarkTable4 -benchmem
//	QCFE_BENCH=med go test -bench=. -benchmem       # larger grid
//	QCFE_BENCH=full go test -bench=. -benchmem      # the paper's scales
//
// The suite is shared across benchmarks within a run, so labeled pools and
// snapshots are collected once.
package qcfe

import (
	"os"
	"sync"
	"testing"

	"repro/internal/experiments"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchParams selects the experiment grid from QCFE_BENCH: quick (default,
// seconds per experiment), med (minutes), full (the paper's 20 envs and
// scales 2000–10000).
func benchParams() experiments.Params {
	switch os.Getenv("QCFE_BENCH") {
	case "full":
		return experiments.DefaultParams()
	case "med":
		return experiments.MedParams()
	default:
		return experiments.Params{
			NumEnvs: 5,
			PerEnv:  map[string]int{"tpch": 120, "sysbench": 160, "imdb": 90},
			Scales:  []int{200, 400},
			Iters:   map[string]int{"tpch": 100, "sysbench": 80, "imdb": 100},
			Seed:    1,
		}
	}
}

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	// Same guard as the internal/experiments tests: even the quick grid
	// collects thousands of labeled queries, so `go test -short -bench=.`
	// must never enter it. (The per-package microbenchmarks in
	// internal/... stay available under -short; only the experiment-grid
	// benchmarks here are heavy.)
	if testing.Short() {
		b.Skip("heavy experiment grid; skipped in -short (CI) mode")
	}
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(benchParams(), os.Stdout)
	})
	return suite
}

// BenchmarkFigure1 regenerates Figure 1: average cost of 1000 queries under
// five environments in TPCH and Sysbench (expected spread 2–3×).
func BenchmarkFigure1(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		cells, err := s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		spread := experiments.Fig1Spread(cells)
		b.ReportMetric(spread["tpch"], "tpch-spread-x")
		b.ReportMetric(spread["sysbench"], "sysbench-spread-x")
	}
}

func benchTable4(b *testing.B, benchmark string) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Table4(benchmark)
		if err != nil {
			b.Fatal(err)
		}
		// Report the largest-scale QCFE(mscn) accuracy as the headline metric.
		for _, r := range rows {
			if r.Model == "QCFE(mscn)" {
				b.ReportMetric(r.MeanQ, "qcfe-mscn-meanq")
				b.ReportMetric(r.Pearson, "qcfe-mscn-pearson")
			}
		}
	}
}

// BenchmarkTable4TPCH regenerates the TPCH block of Table IV.
func BenchmarkTable4TPCH(b *testing.B) { benchTable4(b, "tpch") }

// BenchmarkTable4Sysbench regenerates the Sysbench block of Table IV.
func BenchmarkTable4Sysbench(b *testing.B) { benchTable4(b, "sysbench") }

// BenchmarkTable4JobLight regenerates the job-light block of Table IV.
func BenchmarkTable4JobLight(b *testing.B) { benchTable4(b, "imdb") }

func benchFigure5(b *testing.B, benchmark string) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure5(benchmark); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5TPCH regenerates the TPCH q-error box plots of Figure 5.
func BenchmarkFigure5TPCH(b *testing.B) { benchFigure5(b, "tpch") }

// BenchmarkFigure5Sysbench regenerates the Sysbench boxes of Figure 5.
func BenchmarkFigure5Sysbench(b *testing.B) { benchFigure5(b, "sysbench") }

// BenchmarkFigure5JobLight regenerates the job-light boxes of Figure 5.
func BenchmarkFigure5JobLight(b *testing.B) { benchFigure5(b, "imdb") }

// BenchmarkFigure6 regenerates the ablation study (FSO / FST / FSO+FR /
// FSO+GD / FSO+Greedy) on every benchmark.
func BenchmarkFigure6(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		for _, bench := range []string{"tpch", "sysbench", "imdb"} {
			if _, err := s.Figure6(bench); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure7 regenerates the per-operator feature-reduction counts on
// TPCH (Greedy ≈1%, GD and FR ≈40%).
func BenchmarkFigure7(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		greedy, gd, fr := experiments.ReductionSummary(rows)
		b.ReportMetric(100*greedy, "greedy-reduction-%")
		b.ReportMetric(100*gd, "gd-reduction-%")
		b.ReportMetric(100*fr, "fr-reduction-%")
	}
}

// BenchmarkTable5 regenerates the template-scale robustness study (FSO vs
// FST) on TPCH and job-light.
func BenchmarkTable5(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table5("tpch", []int{1, 2, 3, 4}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Table5("imdb", []int{2, 4, 6, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6 regenerates the reference-count robustness study
// (|R| = 200…500 on TPCH, QCFE(qpp)).
func BenchmarkTable6(b *testing.B) {
	s := benchSuite(b)
	refs := []int{200, 250, 300, 400, 500}
	if os.Getenv("QCFE_BENCH") == "" {
		refs = []int{50, 100, 150} // quick grid has a small pool
	}
	for i := 0; i < b.N; i++ {
		if _, err := s.Table6(refs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7 regenerates the transferability study on TPCH and
// job-light (basis vs trans-FSO vs trans-FST on new hardware).
func BenchmarkTable7(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		for _, bench := range []string{"tpch", "imdb"} {
			if _, err := s.Table7(bench); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure8 regenerates the convergence curves (direct vs
// transferred model) on TPCH and job-light.
func BenchmarkFigure8(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		for _, bench := range []string{"tpch", "imdb"} {
			if _, err := s.Figure8(bench); err != nil {
				b.Fatal(err)
			}
		}
	}
}
