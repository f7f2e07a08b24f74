package qcfe

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/planner"
	"repro/internal/workload"
)

// trainedFixture builds one small trained estimator per model type plus
// held-out test samples, shared across the artifact tests.
func trainedFixture(t *testing.T, model string) (*CostEstimator, []workload.Sample) {
	t.Helper()
	b, err := OpenBenchmark("sysbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	envs := RandomEnvironments(2, 1)
	pool, err := b.CollectWorkload(envs, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, test := pool.Split(0.8)
	est, err := NewPipeline(model,
		WithTrainIters(40), WithReferences(20), WithSeed(3),
	).Fit(b, envs, train)
	if err != nil {
		t.Fatalf("fit %s: %v", model, err)
	}
	return est, test
}

func saveToBytes(t *testing.T, est *CostEstimator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// TestSaveLoadRoundTrip is the artifact contract: for every model type,
// a loaded estimator's EstimateBatch output is bit-identical to the
// in-memory estimator's on the same plans, and the SQL serving path
// agrees too.
func TestSaveLoadRoundTrip(t *testing.T) {
	for _, model := range []string{"mscn", "qppnet", "analytic"} {
		t.Run(model, func(t *testing.T) {
			est, test := trainedFixture(t, model)
			raw := saveToBytes(t, est)

			loaded, err := LoadEstimator(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if loaded.ModelName() != model || loaded.BenchmarkName() != "sysbench" {
				t.Fatalf("identity = %s/%s", loaded.ModelName(), loaded.BenchmarkName())
			}
			if len(loaded.Environments()) != len(est.Environments()) {
				t.Fatalf("environments: %d != %d", len(loaded.Environments()), len(est.Environments()))
			}
			if loaded.TrainSeconds() != est.TrainSeconds() {
				t.Fatalf("train time: %v != %v", loaded.TrainSeconds(), est.TrainSeconds())
			}
			if loaded.ReductionRatio() != est.ReductionRatio() {
				t.Fatalf("reduction ratio: %v != %v", loaded.ReductionRatio(), est.ReductionRatio())
			}

			plans := make([]*planner.Node, len(test))
			for i, s := range test {
				plans[i] = s.Plan
			}
			want := est.EstimateBatch(plans)
			got := loaded.EstimateBatch(plans)
			for i := range plans {
				if got[i] != want[i] {
					t.Fatalf("plan %d: loaded %v != in-memory %v", i, got[i], want[i])
				}
			}

			// The SQL path re-plans from the schema and the statistics the
			// artifact carries; predictions must still agree bit for bit.
			env := est.Environments()[0]
			lenv := loaded.Environments()[0]
			sqls := []string{
				"SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN 100 AND 300",
				"SELECT * FROM sbtest1 WHERE id = 7",
			}
			w, err := est.EstimateSQLBatch(env, sqls)
			if err != nil {
				t.Fatal(err)
			}
			g, err := loaded.EstimateSQLBatch(lenv, sqls)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sqls {
				if g[i] != w[i] {
					t.Fatalf("sql %d: loaded %v != in-memory %v", i, g[i], w[i])
				}
			}

			// Saving the loaded estimator reproduces the artifact exactly:
			// the bytes are a pure function of the trained pipeline.
			if !bytes.Equal(raw, saveToBytes(t, loaded)) {
				t.Fatalf("save(load(artifact)) differs from artifact")
			}
		})
	}
}

// TestAdaptMatchesLoadedRetrain pins what Adapt trains: for each
// trainable model, Adapt's predictions equal, bit for bit, those of a
// LoadEstimator copy of the receiver trained on the same window through
// its model's TrainCtx (a loaded model starts a fresh optimizer and seeds
// its sampler from the config's seed, as a clone does). Its train time
// adds to the receiver's, and the receiver is only read.
func TestAdaptMatchesLoadedRetrain(t *testing.T) {
	for _, model := range []string{"mscn", "qppnet"} {
		t.Run(model, func(t *testing.T) {
			est, window := trainedFixture(t, model)
			raw := saveToBytes(t, est)
			const iters = 20
			next, err := est.Adapt(window, iters)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := LoadEstimator(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			plans, ms := workload.PlansAndLabels(window)
			if _, err := ref.res.Model.TrainCtx(context.Background(), plans, ms, iters); err != nil {
				t.Fatal(err)
			}
			want, got := ref.EstimateBatch(plans), next.EstimateBatch(plans)
			moved := false
			for i := range plans {
				if got[i] != want[i] {
					t.Fatalf("plan %d: adapted %v != loaded-and-trained %v", i, got[i], want[i])
				}
				moved = moved || got[i] != est.EstimateMs(plans[i])
			}
			if !moved {
				t.Fatal("adapting changed no prediction")
			}
			if next.res.TrainTime <= est.res.TrainTime {
				t.Fatalf("train time %v is not the receiver's %v plus the retrain", next.res.TrainTime, est.res.TrainTime)
			}
			// With the train time matched, the two artifacts are the same bytes.
			ref.res.TrainTime = next.res.TrainTime
			if !bytes.Equal(saveToBytes(t, next), saveToBytes(t, ref)) {
				t.Fatal("adapted artifact differs from the loaded-and-trained one")
			}
			if !bytes.Equal(raw, saveToBytes(t, est)) {
				t.Fatal("Adapt changed the receiver")
			}
			if _, err := est.Adapt(window, 0); err == nil {
				t.Fatal("Adapt with 0 iterations must error")
			}
		})
	}
}

// TestLoadRejectsDamage locks in the loud-failure contract for every way
// an artifact can be wrong: truncation, bit corruption, a foreign file,
// and a format-version mismatch each produce a distinct error.
func TestLoadRejectsDamage(t *testing.T) {
	est, _ := trainedFixture(t, "mscn")
	raw := saveToBytes(t, est)

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 10, 19, len(raw) / 2, len(raw) - 1} {
			if _, err := LoadEstimator(bytes.NewReader(raw[:cut])); !errors.Is(err, artifact.ErrTruncated) {
				t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, err)
			}
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		// Flip one byte in the payload (past the 20-byte header).
		for _, pos := range []int{20, 100, len(raw) - 5} {
			bad := append([]byte(nil), raw...)
			bad[pos] ^= 0xff
			if _, err := LoadEstimator(bytes.NewReader(bad)); !errors.Is(err, artifact.ErrCorrupt) {
				t.Fatalf("pos=%d: err = %v, want ErrCorrupt", pos, err)
			}
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		// Version 1 stored FR's relative threshold in the configuration;
		// it is rejected, not read with a second decoder.
		for _, v := range []uint32{1, 0x7f} {
			bad := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(bad[8:12], v) // version field follows the 8-byte magic
			if _, err := LoadEstimator(bytes.NewReader(bad)); !errors.Is(err, artifact.ErrVersion) {
				t.Fatalf("version %d: err = %v, want ErrVersion", v, err)
			}
		}
	})
	t.Run("not an artifact", func(t *testing.T) {
		junk := []byte("PK\x03\x04 definitely a zip file, not a model artifact")
		if _, err := LoadEstimator(bytes.NewReader(junk)); !errors.Is(err, artifact.ErrNotArtifact) {
			t.Fatalf("err = %v, want ErrNotArtifact", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := LoadEstimator(bytes.NewReader(nil)); !errors.Is(err, artifact.ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
}

// TestFitRejectsEmptyTrain: fitting on a nil or empty sample slice must
// fail descriptively instead of silently training on zero samples.
func TestFitRejectsEmptyTrain(t *testing.T) {
	b, err := OpenBenchmark("sysbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	envs := RandomEnvironments(2, 1)
	for _, train := range [][]workload.Sample{nil, {}} {
		if _, err := NewPipeline("mscn").Fit(b, envs, train); err == nil {
			t.Fatalf("Fit(%v samples) should error", len(train))
		}
	}
}

// TestFitRejectsNonPositiveReferences: difference propagation with fewer
// than one reference fails the fit with an error naming the count, where
// -1 used to panic inside the reduction and 0 to report that the mask
// removes every feature.
func TestFitRejectsNonPositiveReferences(t *testing.T) {
	b, err := OpenBenchmark("sysbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	envs := RandomEnvironments(2, 1)
	pool, err := b.CollectWorkload(envs, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(0.8)
	for _, n := range []int{-1, 0} {
		est, err := NewPipeline("mscn", WithReferences(n), WithTrainIters(10)).Fit(b, envs, train)
		want := fmt.Sprintf("NumReferences = %d", n)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("WithReferences(%d): err = %v, want one naming %q", n, err, want)
		}
		if est != nil {
			t.Fatalf("WithReferences(%d) returned an estimator", n)
		}
	}
}

// TestFitCtxCancelled: a cancelled context aborts the pipeline with the
// context's error and no estimator.
func TestFitCtxCancelled(t *testing.T) {
	b, err := OpenBenchmark("sysbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	envs := RandomEnvironments(2, 1)
	pool, err := b.CollectWorkload(envs, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(0.8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est, err := NewPipeline("mscn", WithTrainIters(40)).FitCtx(ctx, b, envs, train)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if est != nil {
		t.Fatalf("cancelled fit returned an estimator")
	}
	// Cancellation must also stop workload collection.
	if _, err := b.CollectWorkloadCtx(ctx, envs, 40, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("collect err = %v, want context.Canceled", err)
	}
}
