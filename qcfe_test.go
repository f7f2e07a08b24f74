package qcfe

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/planner"
	"repro/internal/workload"
)

func TestOpenBenchmarkNames(t *testing.T) {
	for _, name := range Benchmarks() {
		b, err := OpenBenchmark(name, 1)
		if err != nil {
			t.Fatalf("OpenBenchmark(%s): %v", name, err)
		}
		if b.Name() != name {
			t.Fatalf("name = %q", b.Name())
		}
	}
	if _, err := OpenBenchmark("oracle", 1); err == nil {
		t.Fatalf("unknown benchmark should error")
	}
}

func TestExecuteAndExplain(t *testing.T) {
	b, err := OpenBenchmark("sysbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	env := DefaultEnvironment()
	res, err := b.Execute(env, "SELECT * FROM sbtest1 WHERE id = 42")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1 || res.Ms <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if !strings.Contains(res.Plan.Explain(), "Index Scan") {
		t.Fatalf("explain:\n%s", res.Plan.Explain())
	}
	if b.AnalyticEstimateMs(res.Plan) <= 0 {
		t.Fatalf("analytic estimate not positive")
	}
	if _, err := b.Execute(env, "not sql"); err == nil {
		t.Fatalf("bad SQL should error")
	}
}

func TestEndToEndPipeline(t *testing.T) {
	b, err := OpenBenchmark("sysbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	envs := RandomEnvironments(3, 1)
	pool, err := b.CollectWorkload(envs, 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 360 {
		t.Fatalf("pool = %d", pool.Len())
	}
	train, test := pool.Split(0.8)
	est, err := NewPipeline("mscn",
		WithTrainIters(120), WithReferences(40), WithSeed(2),
	).Fit(b, envs, train)
	if err != nil {
		t.Fatal(err)
	}
	sum := est.Evaluate(test)
	if sum.Pearson < 0.4 {
		t.Fatalf("pearson = %v", sum.Pearson)
	}
	if est.TrainSeconds() <= 0 || est.SnapshotCollectionMs() <= 0 {
		t.Fatalf("bookkeeping missing")
	}
	// SQL-level estimation round trip.
	pred, err := est.EstimateSQL(envs[0], "SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN 100 AND 300")
	if err != nil {
		t.Fatal(err)
	}
	if pred < 0 {
		t.Fatalf("negative prediction")
	}
	if _, err := est.EstimateSQL(envs[0], "garbage"); err == nil {
		t.Fatalf("bad SQL should error")
	}
	assertBatchEquivalence(t, est, envs[0], test)
}

// assertBatchEquivalence locks in the serving-path determinism rule: the
// batched estimation APIs must reproduce the per-sample APIs bit for bit.
func assertBatchEquivalence(t *testing.T, est *CostEstimator, env *Environment, test []workload.Sample) {
	t.Helper()
	plans := make([]*planner.Node, len(test))
	for i, s := range test {
		plans[i] = s.Plan
	}
	batch := est.EstimateBatch(plans)
	if len(batch) != len(plans) {
		t.Fatalf("EstimateBatch returned %d results for %d plans", len(batch), len(plans))
	}
	for i, p := range plans {
		if s := est.EstimateMs(p); batch[i] != s {
			t.Fatalf("plan %d: EstimateBatch %v != EstimateMs %v", i, batch[i], s)
		}
	}
	sqls := []string{
		"SELECT COUNT(*) FROM sbtest1 WHERE id BETWEEN 100 AND 300",
		"SELECT * FROM sbtest1 WHERE id = 7",
		"SELECT * FROM sbtest1 WHERE k < 500",
	}
	got, err := est.EstimateSQLBatch(env, sqls)
	if err != nil {
		t.Fatal(err)
	}
	for i, sql := range sqls {
		want, err := est.EstimateSQL(env, sql)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("sql %d: EstimateSQLBatch %v != EstimateSQL %v", i, got[i], want)
		}
	}
	if _, err := est.EstimateSQLBatch(env, []string{"SELECT * FROM sbtest1", "garbage"}); err == nil {
		t.Fatalf("bad SQL in batch should error")
	}
}

func TestPipelineOptions(t *testing.T) {
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
	est, err := NewPipeline("qppnet",
		WithoutSnapshot(), WithReduction("none"), WithTrainIters(60),
		WithSnapshotMode("fst"), WithTemplateScale(1),
	).Fit(b, envs, train)
	if err != nil {
		t.Fatal(err)
	}
	if est.ReductionRatio() != 0 || est.SnapshotCollectionMs() != 0 {
		t.Fatalf("disabled stages leaked: %v %v", est.ReductionRatio(), est.SnapshotCollectionMs())
	}
	_ = est.Evaluate(test)
	// Batch/scalar equivalence on the qppnet pipeline too (the end-to-end
	// test covers mscn).
	assertBatchEquivalence(t, est, envs[0], test)
}

func TestTransferAPI(t *testing.T) {
	b, err := OpenBenchmark("sysbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	envs := RandomEnvironments(2, 1)
	pool, err := b.CollectWorkload(envs, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(0.8)
	est, err := NewPipeline("mscn", WithTrainIters(80), WithReferences(30)).Fit(b, envs, train)
	if err != nil {
		t.Fatal(err)
	}
	h2 := DefaultEnvironment()
	h2.ID = 77
	h2.Knobs.WorkMemKB = 256
	pool2, err := b.CollectWorkload([]*Environment{h2}, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	tr2, te2 := pool2.Split(0.8)
	trans, err := est.Transfer(h2, tr2, 20)
	if err != nil {
		t.Fatal(err)
	}
	sum := trans.Evaluate(te2)
	if sum.Mean < 1 {
		t.Fatalf("impossible q-error %v", sum.Mean)
	}
	// The transferred estimator saves the featurizer it prices with (h2's
	// snapshot under the basis mask), so a Save→Load round trip prices h2
	// identically, and it reports the basis's reduction.
	var buf bytes.Buffer
	if err := trans.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Evaluate(te2); got != sum {
		t.Fatalf("transferred estimator after Save→Load: %+v; before: %+v", got, sum)
	}
	if trans.ReductionRatio() != est.ReductionRatio() {
		t.Fatalf("transferred reduction ratio %v, basis %v", trans.ReductionRatio(), est.ReductionRatio())
	}
	// The analytic estimator has no featurizer: it reports no reduction or
	// snapshot cost, and transferring it is an error, not a panic.
	an := AnalyticEstimator(b, envs)
	if an.ReductionRatio() != 0 || an.SnapshotCollectionMs() != 0 {
		t.Fatalf("analytic estimator reports ratio %v, snapshot cost %v", an.ReductionRatio(), an.SnapshotCollectionMs())
	}
	if _, err := an.Transfer(h2, tr2, 1); err == nil {
		t.Fatalf("transferring the featurizer-less analytic estimator succeeded")
	}
}

// TestConcurrentTransfer: Transfer only reads the basis estimator, so
// two goroutines may transfer from one estimator at once (race-free
// under -race), and both get the same transferred model.
func TestConcurrentTransfer(t *testing.T) {
	b, err := OpenBenchmark("sysbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	envs := RandomEnvironments(2, 1)
	pool, err := b.CollectWorkload(envs, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(0.8)
	est, err := NewPipeline("mscn", WithTrainIters(30), WithReferences(20)).Fit(b, envs, train)
	if err != nil {
		t.Fatal(err)
	}
	h2 := DefaultEnvironment()
	h2.ID = 77
	pool2, err := b.CollectWorkload([]*Environment{h2}, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	tr2, te2 := pool2.Split(0.8)
	var sums [2]Summary
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trans, err := est.Transfer(h2, tr2, 10)
			if err != nil {
				t.Error(err)
				return
			}
			sums[i] = trans.Evaluate(te2)
		}(i)
	}
	wg.Wait()
	if sums[0] != sums[1] {
		t.Fatalf("two transfers from one estimator differ: %+v vs %+v", sums[0], sums[1])
	}
}

func TestQErrorExported(t *testing.T) {
	if QError(10, 5) != 2 {
		t.Fatalf("QError broken")
	}
}
