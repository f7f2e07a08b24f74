package qppnet

import (
	"sync"
	"testing"

	"repro/internal/encoding"
	"repro/internal/planner"
)

// TestPredictFeaturizedBatchBitIdentical asserts the feature-tier
// inference path (skeletons built from cached post-order vectors, the
// query cache's hit path) equals the batched and the per-sample scalar
// paths bit for bit, across chunk boundaries, multi-level trees and in
// batches of one.
func TestPredictFeaturizedBatchBitIdentical(t *testing.T) {
	f := testFeaturizer()
	m := New(f, 1)
	plans, ms := synthPlans(700, 2) // several inference chunks
	m.Train(plans[:80], ms[:80], 40)
	fps := make([]*encoding.FeaturizedPlan, len(plans))
	for i, p := range plans {
		fps[i] = f.Featurize(p)
	}
	got := m.PredictFeaturizedBatch(fps)
	want := m.PredictBatch(plans)
	for i, p := range plans {
		if got[i] != want[i] {
			t.Fatalf("plan %d: PredictFeaturizedBatch %v != PredictBatch %v", i, got[i], want[i])
		}
		s := m.predictMsReference(p)
		if got[i] != s {
			t.Fatalf("plan %d: PredictFeaturizedBatch %v != scalar reference %v", i, got[i], s)
		}
		if one := m.PredictFeaturizedBatch(fps[i : i+1])[0]; one != s {
			t.Fatalf("plan %d: PredictFeaturizedBatch of one %v != scalar reference %v", i, one, s)
		}
	}
	if out := m.PredictFeaturizedBatch(nil); out != nil {
		t.Fatalf("empty batch should return nil")
	}
}

// TestPredictBatchBitIdentical asserts the level-batched inference path
// equals the per-sample scalar tree recursion bit for bit, including after
// training (plans here mix single-node trees and two-scan hash joins, so
// several levels and shared operator subnetworks are exercised), both for
// the whole batch and for every plan priced as a batch of one (the
// single-plan path).
func TestPredictBatchBitIdentical(t *testing.T) {
	m := New(testFeaturizer(), 1)
	plans, ms := synthPlans(80, 2)
	m.Train(plans, ms, 60)
	batch := m.PredictBatch(plans)
	if len(batch) != len(plans) {
		t.Fatalf("batch size = %d, want %d", len(batch), len(plans))
	}
	for i, p := range plans {
		s := m.predictMsReference(p)
		if batch[i] != s {
			t.Fatalf("plan %d: PredictBatch %v != scalar reference %v", i, batch[i], s)
		}
		if one := m.PredictBatch(plans[i : i+1])[0]; one != s {
			t.Fatalf("plan %d: PredictBatch of one %v != scalar reference %v", i, one, s)
		}
	}
	if out := m.PredictBatch(nil); out != nil {
		t.Fatalf("empty batch should return nil")
	}
}

// TestPredictBatchChunking drives a workload larger than one inference
// chunk and requires bit-identity across the chunk boundaries.
func TestPredictBatchChunking(t *testing.T) {
	m := New(testFeaturizer(), 9)
	plans, _ := synthPlans(700, 11) // ~1400 nodes → several chunks
	batch := m.PredictBatch(plans)
	for i, p := range plans {
		if s := m.predictMsReference(p); batch[i] != s {
			t.Fatalf("plan %d: chunked PredictBatch %v != scalar reference %v", i, batch[i], s)
		}
	}
}

// TestPredictBatchDeepTree exercises a chain where the same operator type
// appears at several levels of one plan — the case that forces level-wise
// scheduling (a node's input needs its child's output).
func TestPredictBatchDeepTree(t *testing.T) {
	m := New(testFeaturizer(), 3)
	scan := &planner.Node{Op: planner.SeqScan, Table: "t", EstRows: 1000, EstIn1: 1000, EstWidth: 16, Limit: -1}
	inner := &planner.Node{Op: planner.Materialize, Children: []*planner.Node{scan}, EstRows: 1000, EstIn1: 1000, EstWidth: 16, Limit: -1}
	outer := &planner.Node{Op: planner.Materialize, Children: []*planner.Node{inner}, EstRows: 1000, EstIn1: 1000, EstWidth: 16, Limit: -1}
	got := m.PredictBatch([]*planner.Node{outer, scan})
	if got[0] != m.predictMsReference(outer) || got[1] != m.predictMsReference(scan) {
		t.Fatalf("deep-tree batch diverged: %v vs %v / %v", got, m.predictMsReference(outer), m.predictMsReference(scan))
	}
}

// weightsEqual compares two models' parameters bitwise.
func weightsEqual(t *testing.T, a, b *Model, label string) {
	t.Helper()
	for _, op := range planner.AllOpTypes() {
		an, bn := a.Nets[op], b.Nets[op]
		for li := range an.Layers {
			for i, w := range an.Layers[li].W {
				if w != bn.Layers[li].W[i] {
					t.Fatalf("%s: op %v layer %d W[%d]: %v != %v", label, op, li, i, w, bn.Layers[li].W[i])
				}
			}
			for i, v := range an.Layers[li].B {
				if v != bn.Layers[li].B[i] {
					t.Fatalf("%s: op %v layer %d B[%d] differs", label, op, li, i)
				}
			}
		}
	}
}

// TestTrainMatchesReference trains two identically seeded models — one on
// the batched minibatch path, one on the per-sample reference path — and
// requires bit-identical weight trajectories, at batch size 1 (the
// per-sample seed trajectory) and at the default batch size.
func TestTrainMatchesReference(t *testing.T) {
	plans, ms := synthPlans(120, 7)
	for _, bs := range []int{1, 0 /* default */} {
		batched := New(testFeaturizer(), 5)
		reference := New(testFeaturizer(), 5)
		batched.BatchSize = bs
		reference.BatchSize = bs
		batched.Train(plans, ms, 40)
		reference.TrainReference(plans, ms, 40)
		weightsEqual(t, batched, reference, "after training")
		batched.Train(plans, ms, 5)
		reference.TrainReference(plans, ms, 5)
		weightsEqual(t, batched, reference, "after resumed training")
	}
}

// TestPredictConcurrentBitIdentical hammers one model's batched inference
// from several goroutines at once — the serving daemons' situation — with
// batch sizes on both sides of predictChunkNodes, so calls take pooled
// scratch (arena, grouping buffers, skeleton list) of every size back and
// forth. Every output must equal the serial scalar reference bit for bit.
func TestPredictConcurrentBitIdentical(t *testing.T) {
	f := testFeaturizer()
	m := New(f, 3)
	plans, ms := synthPlans(700, 5) // ~1400 nodes: more than one chunk
	m.Train(plans[:80], ms[:80], 30)
	want := make([]float64, len(plans))
	fps := make([]*encoding.FeaturizedPlan, len(plans))
	for i, p := range plans {
		want[i] = m.predictMsReference(p)
		fps[i] = f.Featurize(p)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				// 1, 64 and all 700 plans in turn, from a moving offset.
				size := []int{1, 64, len(plans)}[(w+round)%3]
				lo := (w*131 + round*17) % (len(plans) - size + 1)
				var got []float64
				if (w+round)%2 == 0 {
					got = m.PredictFeaturizedBatch(fps[lo : lo+size])
				} else {
					got = m.PredictBatch(plans[lo : lo+size])
				}
				for i, v := range got {
					if v != want[lo+i] {
						t.Errorf("worker %d round %d: plan %d = %v, serial reference %v", w, round, lo+i, v, want[lo+i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
