package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/encoding"
	"repro/internal/parallel"
	"repro/internal/planner"
	"repro/internal/workload"
)

var (
	sysb = datagen.Sysbench(1)
	envs = dbenv.SampleSet(4, 3)
)

// labeledPool is collected once; tests slice it.
var pool = func() *workload.Labeled {
	lab, err := workload.Collect(context.Background(), sysb, envs, 120, 5)
	if err != nil {
		panic(err)
	}
	return lab
}()

func smallConfig(model string) Config {
	cfg := DefaultConfig(model)
	cfg.TrainIters = 150
	cfg.ProbeEpochs = 15
	cfg.ProbeSamples = 800
	cfg.NumReferences = 40
	return cfg
}

func TestPipelinePlainMSCN(t *testing.T) {
	cfg := smallConfig("mscn")
	cfg.UseSnapshot = false
	cfg.Reduction = ReduceNone
	train, test := workload.Split(pool.Scale(400), 0.8)
	res, err := RunCtx(context.Background(), sysb, envs, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := Evaluate(res.Model, test)
	if s.Pearson < 0.5 {
		t.Fatalf("plain MSCN pearson = %v, want ≥0.5", s.Pearson)
	}
	if res.F.Mask != nil || res.F.Snaps != nil || res.SnapshotMs != 0 || res.ReductionRatio() != 0 {
		t.Fatalf("plain run should have no snapshot/mask")
	}
}

func TestPipelineQCFEBeatsPlain(t *testing.T) {
	// The paper's headline: QCFE(mscn) ≥ MSCN in accuracy.
	train, test := workload.Split(pool.Scale(600), 0.8)

	plain := smallConfig("mscn")
	plain.UseSnapshot = false
	plain.Reduction = ReduceNone
	pres, err := RunCtx(context.Background(), sysb, envs, train, plain)
	if err != nil {
		t.Fatal(err)
	}
	ps := Evaluate(pres.Model, test)

	qcfe := smallConfig("mscn")
	qres, err := RunCtx(context.Background(), sysb, envs, train, qcfe)
	if err != nil {
		t.Fatal(err)
	}
	qs := Evaluate(qres.Model, test)

	if qs.Mean > ps.Mean*1.10 {
		t.Fatalf("QCFE mean q-error %.3f much worse than plain %.3f", qs.Mean, ps.Mean)
	}
	if qres.SnapshotMs <= 0 {
		t.Fatalf("snapshot collection cost not recorded")
	}
	if qres.ReductionRatio() <= 0 {
		t.Fatalf("no features reduced")
	}
}

func TestPipelineQPPNet(t *testing.T) {
	cfg := smallConfig("qppnet")
	cfg.TrainIters = 120
	train, test := workload.Split(pool.Scale(400), 0.8)
	res, err := RunCtx(context.Background(), sysb, envs, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := Evaluate(res.Model, test)
	if s.Pearson < 0.4 {
		t.Fatalf("QCFE(qpp) pearson = %v", s.Pearson)
	}
	if res.TrainTime <= 0 {
		t.Fatalf("train time not measured")
	}
}

func TestSnapshotModes(t *testing.T) {
	for _, mode := range []SnapshotMode{FSO, FST} {
		cfg := smallConfig("mscn")
		cfg.SnapshotMode = mode
		cfg.FSOPerEnv = 14
		snaps, ms, err := BuildSnapshotsCtx(context.Background(), sysb, envs[:2], cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(snaps) != 2 || ms <= 0 {
			t.Fatalf("%s: snaps=%d ms=%v", mode, len(snaps), ms)
		}
	}
	bad := smallConfig("mscn")
	bad.SnapshotMode = "nope"
	if _, _, err := BuildSnapshotsCtx(context.Background(), sysb, envs[:1], bad); err == nil {
		t.Fatalf("unknown mode should error")
	}
}

// TestSnapshotsRejectDuplicateIDs builds snapshots for two different
// environments that share ID 0. Snapshots are keyed by ID, so one would
// silently replace the other; the build must fail with a typed error.
func TestSnapshotsRejectDuplicateIDs(t *testing.T) {
	other := dbenv.SampleSet(1, 7)[0]
	cfg := smallConfig("mscn")
	cfg.SnapshotMode = FSO
	cfg.FSOPerEnv = 14
	_, _, err := BuildSnapshotsCtx(context.Background(), sysb, []*dbenv.Environment{dbenv.Default(), other}, cfg)
	var dup *dbenv.DuplicateIDError
	if !errors.As(err, &dup) || dup.ID != 0 || dup.First != 0 || dup.Second != 1 {
		t.Fatalf("err = %v, want a DuplicateIDError for ID 0 at positions 0 and 1", err)
	}
}

func TestReductionMethods(t *testing.T) {
	train, _ := workload.Split(pool.Scale(300), 0.8)
	f := &encoding.Featurizer{Enc: encoding.New(sysb.Schema)}
	for _, method := range []ReductionMethod{ReduceFR, ReduceGD, ReduceGreedy} {
		cfg := smallConfig("mscn")
		cfg.Reduction = method
		cfg.ProbeEpochs = 8
		cfg.ProbeSamples = 300
		mask, rt, err := Reduce(f, train, cfg)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if mask == nil || rt <= 0 {
			t.Fatalf("%s: no mask/time", method)
		}
	}
	cfg := smallConfig("mscn")
	cfg.Reduction = ReduceNone
	mask, _, err := Reduce(f, train, cfg)
	if err != nil || mask != nil {
		t.Fatalf("none should produce nil mask")
	}
}

func TestOperatorDatasetShape(t *testing.T) {
	f := &encoding.Featurizer{Enc: encoding.New(sysb.Schema)}
	train := pool.Scale(50)
	d := OperatorDataset(f, train)
	var wantRows int
	for _, s := range train {
		wantRows += s.Plan.CountNodes()
	}
	if len(d.X) != wantRows {
		t.Fatalf("operator rows = %d, want %d", len(d.X), wantRows)
	}
	if d.Dim() != f.RawDim() || len(d.Names) != d.Dim() {
		t.Fatalf("dims misaligned: %d vs %d", d.Dim(), f.RawDim())
	}
}

func TestNewEstimatorUnknown(t *testing.T) {
	if _, err := NewEstimator("tree-lstm", nil, nil, 1); err == nil {
		t.Fatalf("unknown model should error")
	}
}

func TestTransferWorkflow(t *testing.T) {
	cfg := smallConfig("mscn")
	train, _ := workload.Split(pool.Scale(400), 0.8)
	basis, err := RunCtx(context.Background(), sysb, envs, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// New environment: different hardware (the paper's h2).
	h2 := dbenv.Default()
	h2.ID = 99
	h2.HW, _ = dbenv.ProfileByName("i7-12700h-nvme")
	lab2, err := workload.Collect(context.Background(), sysb, []*dbenv.Environment{h2}, 150, 77)
	if err != nil {
		t.Fatal(err)
	}
	tr2, te2 := workload.Split(lab2.Samples, 0.8)

	ft, err := basis.ForEnvCtx(context.Background(), sysb, h2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trans, err := Transfer(context.Background(), basis, ft, tr2, 40)
	if err != nil {
		t.Fatal(err)
	}
	s := Evaluate(trans.Model, te2)
	if s.Pearson < 0.4 {
		t.Fatalf("transferred model pearson = %v", s.Pearson)
	}
	if trans.SnapshotMs <= 0 || trans.TrainTime <= 0 {
		t.Fatalf("transfer bookkeeping missing")
	}
	// The transferred result carries h2's snapshot under the basis encoder
	// and mask, and reports the basis's reduction.
	if _, ok := trans.F.Snaps[h2.ID]; !ok || len(trans.F.Snaps) != 1 {
		t.Fatalf("transferred featurizer has snapshots for %d environments, want h2's alone", len(trans.F.Snaps))
	}
	if trans.F.Enc != basis.F.Enc || &trans.F.Mask[0] != &basis.F.Mask[0] {
		t.Fatalf("transferred featurizer does not keep the basis encoder and mask")
	}
	if trans.ReductionRatio() != basis.ReductionRatio() {
		t.Fatalf("reduction ratio %v after transfer, basis %v", trans.ReductionRatio(), basis.ReductionRatio())
	}
	// The basis model must be untouched by the transfer retraining.
	if basis.Model.PredictBatch([]*planner.Node{te2[0].Plan})[0] == 0 {
		t.Fatalf("basis model broken")
	}
}

// TestFeaturesTrainTwoModels fits one Features and trains mscn and qppnet
// on it. Each model's artifact must equal, byte for byte, that of
// its own independent RunCtx: sharing the featurizer changes nothing, and
// training the first model must not write to what the second one reads.
func TestFeaturesTrainTwoModels(t *testing.T) {
	train, _ := workload.Split(pool.Scale(300), 0.8)
	cfg := func(model string) Config {
		c := smallConfig(model)
		c.TrainIters = 40
		return c
	}
	ctx := context.Background()
	ft, err := FitFeaturesCtx(ctx, sysb, envs, train, cfg("mscn"))
	if err != nil {
		t.Fatal(err)
	}
	if ft.F.Snaps == nil || ft.F.Mask == nil {
		t.Fatalf("default features carry no snapshot block or mask")
	}
	// save writes res's artifact with the two wall-clock fields zeroed.
	save := func(res *Result, c Config) []byte {
		r := *res
		r.TrainTime, r.ReductionTime = 0, 0
		var buf bytes.Buffer
		if err := SaveArtifact(&buf, sysb, 1, envs, c, &r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// The two models train at once, so -race also sees a write to ft.
	models := []string{"mscn", "qppnet"}
	shared, err := parallel.MapCtx(context.Background(), len(models), len(models), func(i int) (*Result, error) {
		return TrainCtx(ctx, sysb, ft, train, cfg(models[i]))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, model := range models {
		alone, err := RunCtx(ctx, sysb, envs, train, cfg(model))
		if err != nil {
			t.Fatal(err)
		}
		if shared[i].F != ft.F {
			t.Fatalf("%s: trained on a copy of the shared featurizer", model)
		}
		if !bytes.Equal(save(shared[i], cfg(model)), save(alone, cfg(model))) {
			t.Fatalf("%s trained on the shared Features saves other bytes than its own RunCtx", model)
		}
	}
}

func TestTrainCurveDecreases(t *testing.T) {
	cfg := smallConfig("mscn")
	cfg.UseSnapshot = false
	cfg.Reduction = ReduceNone
	train, test := workload.Split(pool.Scale(400), 0.8)
	f := &encoding.Featurizer{Enc: encoding.New(sysb.Schema)}
	m, err := NewEstimator("mscn", f, sysb.Stats, 2)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := TrainCurve(context.Background(), m, train, test, 120, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 4 {
		t.Fatalf("curve points = %d", len(curve))
	}
	if curve[len(curve)-1] > curve[0] {
		t.Fatalf("q-error should improve over training: %v", curve)
	}
}
