package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/encoding"
	"repro/internal/planner"
	"repro/internal/workload"
)

var (
	sysb = datagen.Sysbench(1)
	envs = dbenv.SampleSet(4, 3)
)

// labeledPool is collected once; tests slice it.
var pool = func() *workload.Labeled {
	lab, err := workload.Collect(sysb, envs, 120, 5)
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
	res, err := Run(sysb, envs, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := Evaluate(res.Model, test)
	if s.Pearson < 0.5 {
		t.Fatalf("plain MSCN pearson = %v, want ≥0.5", s.Pearson)
	}
	if res.Mask != nil || res.SnapshotMs != 0 {
		t.Fatalf("plain run should have no snapshot/mask")
	}
}

func TestPipelineQCFEBeatsPlain(t *testing.T) {
	// The paper's headline: QCFE(mscn) ≥ MSCN in accuracy.
	train, test := workload.Split(pool.Scale(600), 0.8)

	plain := smallConfig("mscn")
	plain.UseSnapshot = false
	plain.Reduction = ReduceNone
	pres, err := Run(sysb, envs, train, plain)
	if err != nil {
		t.Fatal(err)
	}
	ps := Evaluate(pres.Model, test)

	qcfe := smallConfig("mscn")
	qres, err := Run(sysb, envs, train, qcfe)
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
	if qres.ReductionRatio <= 0 {
		t.Fatalf("no features reduced")
	}
}

func TestPipelineQPPNet(t *testing.T) {
	cfg := smallConfig("qppnet")
	cfg.TrainIters = 120
	train, test := workload.Split(pool.Scale(400), 0.8)
	res, err := Run(sysb, envs, train, cfg)
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
		snaps, ms, err := BuildSnapshots(sysb, envs[:2], cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(snaps) != 2 || ms <= 0 {
			t.Fatalf("%s: snaps=%d ms=%v", mode, len(snaps), ms)
		}
	}
	bad := smallConfig("mscn")
	bad.SnapshotMode = "nope"
	if _, _, err := BuildSnapshots(sysb, envs[:1], bad); err == nil {
		t.Fatalf("unknown mode should error")
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
	basis, err := Run(sysb, envs, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// New environment: different hardware (the paper's h2).
	h2 := dbenv.Default()
	h2.ID = 99
	h2.HW, _ = dbenv.ProfileByName("i7-12700h-nvme")
	lab2, err := workload.Collect(sysb, []*dbenv.Environment{h2}, 150, 77)
	if err != nil {
		t.Fatal(err)
	}
	tr2, te2 := workload.Split(lab2.Samples, 0.8)

	trans, err := Transfer(basis, sysb, h2, tr2, cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	s := Evaluate(trans.Model, te2)
	if s.Pearson < 0.4 {
		t.Fatalf("transferred model pearson = %v", s.Pearson)
	}
	if trans.SnapshotMs <= 0 || trans.RetrainTime <= 0 {
		t.Fatalf("transfer bookkeeping missing")
	}
	// The basis model must be untouched by the transfer retraining.
	if basis.Model.PredictBatch([]*planner.Node{te2[0].Plan})[0] == 0 {
		t.Fatalf("basis model broken")
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
	curve := TrainCurve(m, train, test, 120, 30)
	if len(curve) != 4 {
		t.Fatalf("curve points = %d", len(curve))
	}
	if curve[len(curve)-1] > curve[0] {
		t.Fatalf("q-error should improve over training: %v", curve)
	}
}
