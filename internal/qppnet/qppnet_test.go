package qppnet

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/encoding"
	"repro/internal/metrics"
	"repro/internal/planner"
)

// synthetic plan trees with a cost that depends on structure: a scan node
// costs 2·log(rows), a join tree adds its children plus 1.
func synthPlans(n int, seed int64) ([]*planner.Node, []float64) {
	rng := rand.New(rand.NewSource(seed))
	var plans []*planner.Node
	var ms []float64
	for i := 0; i < n; i++ {
		rows := float64(100 + rng.Intn(100000))
		scan := &planner.Node{Op: planner.SeqScan, Table: "t", EstRows: rows, EstIn1: rows, EstWidth: 16, Limit: -1}
		cost := rows * 0.001
		if rng.Intn(2) == 0 {
			rows2 := float64(100 + rng.Intn(10000))
			scan2 := &planner.Node{Op: planner.SeqScan, Table: "t", EstRows: rows2, EstIn1: rows2, EstWidth: 16, Limit: -1}
			join := &planner.Node{
				Op: planner.HashJoin, Children: []*planner.Node{scan, scan2},
				EstRows: rows, EstIn1: rows, EstIn2: rows2, EstWidth: 32, Limit: -1,
			}
			cost += rows2*0.001 + 0.5
			plans = append(plans, join)
		} else {
			plans = append(plans, scan)
		}
		ms = append(ms, cost)
	}
	return plans, ms
}

func testFeaturizer() *encoding.Featurizer {
	s := catalog.NewSchema("synth")
	s.AddTable(catalog.NewTable("t", catalog.Column{Name: "a", Type: catalog.IntCol, Width: 8}))
	return &encoding.Featurizer{Enc: encoding.New(s)}
}

func TestQPPNetLearnsTreeCosts(t *testing.T) {
	f := testFeaturizer()
	m := New(f, 1)
	plans, ms := synthPlans(300, 2)
	m.TrainCtx(context.Background(), plans, ms, 500)

	testPlans, testMs := synthPlans(60, 3)
	s := metrics.Summarize(testMs, m.PredictBatch(testPlans))
	if s.Pearson < 0.9 {
		t.Fatalf("pearson = %v, want ≥0.9", s.Pearson)
	}
	if s.Mean > 2 {
		t.Fatalf("mean q-error = %v", s.Mean)
	}
}

func TestQPPNetSharedSubnets(t *testing.T) {
	// Both scans in one plan go through the same SeqScan network: the
	// network map has exactly NumOpTypes entries regardless of tree size.
	m := New(testFeaturizer(), 1)
	if len(m.Nets) != int(planner.NumOpTypes) {
		t.Fatalf("nets = %d", len(m.Nets))
	}
	if m.NumParams() == 0 {
		t.Fatalf("no parameters")
	}
}

func TestQPPNetCloneIndependent(t *testing.T) {
	f := testFeaturizer()
	m := New(f, 1)
	plans, ms := synthPlans(50, 4)
	m.TrainCtx(context.Background(), plans, ms, 50)
	c := m.Clone()
	before := c.PredictBatch(plans[:1])[0]
	m.TrainCtx(context.Background(), plans, ms, 100)
	if c.PredictBatch(plans[:1])[0] != before {
		t.Fatalf("clone affected by original's training")
	}
}

// TestQPPNetCloneLeavesSourceUntouched: cloning reads the source model
// and writes nothing to it, so training the source after a Clone takes
// the same steps as training it without one, and two clones of one
// model are the same model.
func TestQPPNetCloneLeavesSourceUntouched(t *testing.T) {
	plans, ms := synthPlans(50, 4)
	cloned, plain := New(testFeaturizer(), 1), New(testFeaturizer(), 1)
	cloned.TrainCtx(context.Background(), plans, ms, 30)
	plain.TrainCtx(context.Background(), plans, ms, 30)
	a, b := cloned.Clone(), cloned.Clone()
	cloned.TrainCtx(context.Background(), plans, ms, 30)
	plain.TrainCtx(context.Background(), plans, ms, 30)
	weightsEqual(t, cloned, plain, "source trained after a Clone")
	a.TrainCtx(context.Background(), plans, ms, 30)
	b.TrainCtx(context.Background(), plans, ms, 30)
	weightsEqual(t, a, b, "two clones trained alike")
}

func TestQPPNetSetFeaturizerDimCheck(t *testing.T) {
	f := testFeaturizer()
	m := New(f, 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on dim mismatch")
		}
	}()
	s2 := catalog.NewSchema("other")
	s2.AddTable(catalog.NewTable("a", catalog.Column{Name: "x", Type: catalog.IntCol, Width: 8}))
	s2.AddTable(catalog.NewTable("b", catalog.Column{Name: "y", Type: catalog.IntCol, Width: 8}))
	m.SetFeaturizer(&encoding.Featurizer{Enc: encoding.New(s2)})
}

func TestQPPNetEmptyTraining(t *testing.T) {
	m := New(testFeaturizer(), 1)
	if d, err := m.TrainCtx(context.Background(), nil, nil, 10); err != nil || d < 0 {
		t.Fatalf("empty training: d = %v, err = %v", d, err)
	}
}

func TestQPPNetPredictionNonNegative(t *testing.T) {
	m := New(testFeaturizer(), 9)
	plans, _ := synthPlans(20, 5)
	for _, v := range m.PredictBatch(plans) {
		if v < 0 {
			t.Fatalf("negative prediction %v", v)
		}
	}
}
