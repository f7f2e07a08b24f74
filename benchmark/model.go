package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	qcfe "repro"
)

// The reference model. Every serving workload boots the mscn artifact the
// fit workload's recipe produces: TPC-H, 3 sampled environments x 120
// labelled queries, 80/20 split, QCFE defaults. Training it takes about
// as long as compiling the daemons, and like them it is built once per
// checkout and kept under .bench_build; neither counts as set-up time.

const (
	fitBenchmark = "tpch"
	fitSeed      = 1 // dataset, labelled pool and model; one model whatever -seed, so q-error compares across request seeds
	fitEnvs      = 3
	fitPerEnv    = 120
	fitTrainFrac = 0.8
)

// model is the reference artifact and the q-error it scored on its
// held-out set when it was trained.
type model struct {
	path     string // the artifact file the daemons load
	artifact []byte
	qerror   qcfe.Summary
}

// modelDir names the cache slot for this harness binary. Any change to the
// code the harness links, the training pipeline included, changes the
// binary and so misses the cache.
func (p paths) modelDir() string {
	return filepath.Join(p.build, "model", harnessKey())
}

var harnessKey = sync.OnceValue(func() string {
	if exe, err := os.Executable(); err == nil {
		if raw, err := os.ReadFile(exe); err == nil {
			return fmt.Sprintf("%x", sha256.Sum256(raw))[:16]
		}
	}
	return "unversioned"
})

// loadModel returns the cached reference model, training it first when
// this checkout has none.
func (p paths) loadModel(ctx context.Context) (*model, error) {
	m := &model{path: filepath.Join(p.modelDir(), "mscn.qcfe")}
	art, err1 := os.ReadFile(m.path)
	raw, err2 := os.ReadFile(filepath.Join(p.modelDir(), "qerror.json"))
	if err1 == nil && err2 == nil && json.Unmarshal(raw, &m.qerror) == nil {
		m.artifact = art
		return m, nil
	}
	logf("training the reference mscn artifact (once per checkout, not counted as set-up)")
	tr, err := trainReference(ctx, false)
	if err != nil {
		return nil, err
	}
	return p.storeModel(tr, tr.mscn.Evaluate(tr.test))
}

// storeModel writes a trained reference model into the cache slot, the
// artifact last: a slot that has it is whole.
func (p paths) storeModel(tr *training, qerror qcfe.Summary) (*model, error) {
	dir := p.modelDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &model{path: filepath.Join(dir, "mscn.qcfe"), artifact: tr.artifact, qerror: qerror}
	raw, err := json.Marshal(qerror)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "qerror.json"), raw, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(m.path, m.artifact, 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

// estimator loads a private copy of the model for in-process use.
func (m *model) estimator() (*qcfe.CostEstimator, error) {
	return qcfe.LoadEstimator(bytes.NewReader(m.artifact))
}

// envIDs lists the environment IDs an estimator was trained across.
func envIDs(est *qcfe.CostEstimator) []int {
	var ids []int
	for _, e := range est.Environments() {
		ids = append(ids, e.ID)
	}
	return ids
}

func envByID(envs []*qcfe.Environment, id int) *qcfe.Environment {
	for _, e := range envs {
		if e.ID == id {
			return e
		}
	}
	return nil
}
