package qcfe

import (
	"bytes"
	"context"
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

			// The SQL path re-plans inside the loaded estimator's rebuilt
			// dataset; predictions must still agree bit for bit.
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
		bad := append([]byte(nil), raw...)
		bad[8] = 0x7f // version field follows the 8-byte magic
		if _, err := LoadEstimator(bytes.NewReader(bad)); !errors.Is(err, artifact.ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
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
