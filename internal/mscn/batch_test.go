package mscn

import (
	"context"
	"sync"
	"testing"

	"repro/internal/encoding"
)

// TestPredictFeaturizedBatchBitIdentical asserts the feature-tier
// inference path (cached per-node vectors, the query cache's hit path)
// equals both the batched and the per-sample scalar paths bit for bit,
// across chunk boundaries and in batches of one.
func TestPredictFeaturizedBatchBitIdentical(t *testing.T) {
	f := testFeaturizer()
	m := New(f, 1)
	plans, ms := synthPlans(900, 2) // several inference chunks
	m.TrainCtx(context.Background(), plans[:80], ms[:80], 40)
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

// TestPredictBatchBitIdentical asserts the batched inference path equals
// the per-sample scalar path bit for bit, including after training, both
// for the whole batch and for every plan priced as a batch of one (the
// single-plan path).
func TestPredictBatchBitIdentical(t *testing.T) {
	m := New(testFeaturizer(), 1)
	plans, ms := synthPlans(80, 2)
	m.TrainCtx(context.Background(), plans, ms, 60)
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
// chunk (predictChunkNodes) and requires bit-identity across the chunk
// boundaries.
func TestPredictBatchChunking(t *testing.T) {
	m := New(testFeaturizer(), 9)
	plans, _ := synthPlans(900, 11) // ~1350 nodes → several chunks
	batch := m.PredictBatch(plans)
	for i, p := range plans {
		if s := m.predictMsReference(p); batch[i] != s {
			t.Fatalf("plan %d: chunked PredictBatch %v != scalar reference %v", i, batch[i], s)
		}
	}
}

// weightsEqual compares two models' parameters bitwise.
func weightsEqual(t *testing.T, a, b *Model, label string) {
	t.Helper()
	for li := range a.SetNet.Layers {
		for i, w := range a.SetNet.Layers[li].W {
			if w != b.SetNet.Layers[li].W[i] {
				t.Fatalf("%s: SetNet layer %d W[%d]: %v != %v", label, li, i, w, b.SetNet.Layers[li].W[i])
			}
		}
		for i, v := range a.SetNet.Layers[li].B {
			if v != b.SetNet.Layers[li].B[i] {
				t.Fatalf("%s: SetNet layer %d B[%d] differs", label, li, i)
			}
		}
	}
	for li := range a.OutNet.Layers {
		for i, w := range a.OutNet.Layers[li].W {
			if w != b.OutNet.Layers[li].W[i] {
				t.Fatalf("%s: OutNet layer %d W[%d]: %v != %v", label, li, i, w, b.OutNet.Layers[li].W[i])
			}
		}
		for i, v := range a.OutNet.Layers[li].B {
			if v != b.OutNet.Layers[li].B[i] {
				t.Fatalf("%s: OutNet layer %d B[%d] differs", label, li, i)
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
		batched.TrainCtx(context.Background(), plans, ms, 40)
		reference.TrainReference(plans, ms, 40)
		weightsEqual(t, batched, reference, "after training")
		// The rng must have advanced identically too: one more round on
		// each should stay in lockstep.
		batched.TrainCtx(context.Background(), plans, ms, 5)
		reference.TrainReference(plans, ms, 5)
		weightsEqual(t, batched, reference, "after resumed training")
	}
}

// TestPredictConcurrentBitIdentical hammers one model's batched inference
// from several goroutines at once — the serving daemons' situation — with
// batch sizes on both sides of predictChunkNodes, so calls take pooled
// scratch of every size back and forth. Every output must equal the
// serial scalar reference bit for bit: a call that read another call's
// arena would show here (and under -race).
func TestPredictConcurrentBitIdentical(t *testing.T) {
	f := testFeaturizer()
	m := New(f, 3)
	plans, ms := synthPlans(900, 5) // ~1350 nodes: more than one chunk
	m.TrainCtx(context.Background(), plans[:80], ms[:80], 30)
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
				// 1, 64 and all 900 plans in turn, from a moving offset.
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
