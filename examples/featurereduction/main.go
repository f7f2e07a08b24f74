// Feature reduction under the microscope (paper §IV, Figure 7): build the
// operator-level labeled dataset for TPC-H, train a probe model, and show
// which features each method prunes — difference propagation (FR) versus
// the gradient (GD) and greedy (Algorithm 2) baselines.
//
//	go run ./examples/featurereduction
package main

import (
	"context"
	"fmt"
	"log"

	qcfe "repro"
	"repro/internal/core"
	"repro/internal/featred"
)

func main() {
	bench, err := qcfe.OpenBenchmark("tpch", 1)
	if err != nil {
		log.Fatal(err)
	}
	envs := qcfe.RandomEnvironments(4, 1)
	pool, err := bench.CollectWorkload(envs, 120, 1)
	if err != nil {
		log.Fatal(err)
	}
	train, _ := pool.Split(0.8)

	// Build the QCFE feature space: general encoding + per-environment
	// snapshots.
	snaps, err := core.SnapshotFeaturesCtx(context.Background(), bench.Dataset(), envs, core.DefaultConfig("qppnet"))
	if err != nil {
		log.Fatal(err)
	}
	data := core.OperatorDataset(snaps.F, train).Subsample(1500, 1)
	fmt.Printf("operator dataset: %d samples × %d features\n\n", len(data.X), data.Dim())

	probe := featred.TrainProbe(data, 32, 25, 1)
	fmt.Printf("probe model q-error on its own data: %.3f\n\n", featred.QErrorOf(probe, data, nil))

	frMask := featred.MaskFromScores(featred.DiffPropScores(probe, data.X, 100, 1))
	gdMask := featred.MaskFromScores(featred.GradientScores(probe, data.X))
	greedyMask := featred.GreedyReduce(probe, data.Subsample(300, 1))

	report := func(name string, mask []bool) {
		fmt.Printf("%-8s kept %d/%d features (%.1f%% reduced)\n",
			name, featred.CountKept(mask), data.Dim(), 100*featred.ReductionRatio(mask))
	}
	report("FR", frMask)
	report("GD", gdMask)
	report("Greedy", greedyMask)

	fmt.Println("\nfeatures dropped by FR (difference propagation):")
	for _, name := range featred.DroppedNames(frMask, data.Names) {
		fmt.Printf("  - %s\n", name)
	}
	fmt.Println("\nexpected shape (paper Figure 7): FR ≈ GD ≫ Greedy in reduction;")
	fmt.Println("unused table/index one-hots are the first features FR drops")
}
