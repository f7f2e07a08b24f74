package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/workload"
)

// TestFRKeepsNonConstantColumns: at Algorithm 3's cut (score > 0), the
// mask Reduce fits by difference propagation keeps exactly the columns
// of its probe sample that take more than one value. Checked on the fit
// recipe's shape (3 environments × 120 queries, split 0.8, DefaultConfig
// with Seed = the data seed) for tpch, imdb and sysbench at data seeds
// 1–4; -short runs seed 1 only. Datasets are built directly, not through
// datagen.Build, so each cell's dataset can be collected once it is checked.
func TestFRKeepsNonConstantColumns(t *testing.T) {
	builders := map[string]func(int64) *datagen.Dataset{
		"tpch": datagen.TPCH, "imdb": datagen.IMDB, "sysbench": datagen.Sysbench,
	}
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	ctx := context.Background()
	for _, bench := range datagen.BenchmarkNames() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", bench, seed), func(t *testing.T) {
				ds := builders[bench](seed)
				envs := dbenv.SampleSet(3, seed)
				lab, err := workload.Collect(ctx, ds, envs, 120, seed)
				if err != nil {
					t.Fatal(err)
				}
				train, _ := workload.Split(lab.Samples, 0.8)
				cfg := DefaultConfig("mscn")
				cfg.Seed = seed
				ft, err := SnapshotFeaturesCtx(ctx, ds, envs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				mask, _, err := Reduce(ft.F, train, cfg)
				if err != nil {
					t.Fatal(err)
				}
				probe := OperatorDataset(ft.F, train).Subsample(cfg.ProbeSamples, cfg.Seed)
				want := nonConstantColumns(probe.X)
				kept := 0
				for k := range want {
					if mask[k] != want[k] {
						t.Errorf("%s: FR keeps %v, the probe sample's column is constant = %v", probe.Names[k], mask[k], !want[k])
					}
					if mask[k] {
						kept++
					}
				}
				t.Logf("%d of %d dims kept", kept, len(mask))
			})
		}
	}
}

// nonConstantColumns reports, per column of X, whether two rows hold
// different values in it.
func nonConstantColumns(X [][]float64) []bool {
	varies := make([]bool, len(X[0]))
	for _, x := range X[1:] {
		for k, v := range x {
			if v != X[0][k] {
				varies[k] = true
			}
		}
	}
	return varies
}
