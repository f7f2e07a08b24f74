package mscn

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/encoding"
	"repro/internal/metrics"
	"repro/internal/planner"
)

func synthPlans(n int, seed int64) ([]*planner.Node, []float64) {
	rng := rand.New(rand.NewSource(seed))
	var plans []*planner.Node
	var ms []float64
	for i := 0; i < n; i++ {
		rows := float64(100 + rng.Intn(100000))
		scan := &planner.Node{Op: planner.SeqScan, Table: "t", EstRows: rows, EstIn1: rows, EstWidth: 16, Limit: -1}
		cost := rows * 0.001
		if rng.Intn(2) == 0 {
			sorted := &planner.Node{
				Op: planner.Sort, Children: []*planner.Node{scan},
				EstRows: rows, EstIn1: rows, EstWidth: 16, SortCols: []int{0}, SortDesc: []bool{false}, Limit: -1,
			}
			cost *= 2.5
			plans = append(plans, sorted)
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

func TestMSCNLearns(t *testing.T) {
	m := New(testFeaturizer(), 1)
	plans, ms := synthPlans(300, 2)
	m.Train(plans, ms, 400)
	testPlans, testMs := synthPlans(60, 3)
	s := metrics.Summarize(testMs, m.PredictBatch(testPlans))
	if s.Pearson < 0.9 {
		t.Fatalf("pearson = %v", s.Pearson)
	}
	if s.Mean > 2 {
		t.Fatalf("mean q-error = %v", s.Mean)
	}
}

func TestMSCNPooling(t *testing.T) {
	// Prediction must be invariant to duplicating a subtree's embedding
	// count in a controlled way: a single-node plan and the same node
	// repeated via a Materialize wrapper should differ (pooling sees the
	// extra node) — i.e. the model is actually reading the set.
	m := New(testFeaturizer(), 4)
	scan := &planner.Node{Op: planner.SeqScan, Table: "t", EstRows: 5000, EstIn1: 5000, EstWidth: 16, Limit: -1}
	wrapped := &planner.Node{Op: planner.Materialize, Children: []*planner.Node{scan}, EstRows: 5000, EstIn1: 5000, EstWidth: 16, Limit: -1}
	if got := m.PredictBatch([]*planner.Node{scan, wrapped}); got[0] == got[1] {
		t.Fatalf("pooling ignores plan structure")
	}
}

func TestMSCNCloneIndependent(t *testing.T) {
	m := New(testFeaturizer(), 1)
	plans, ms := synthPlans(50, 4)
	m.Train(plans, ms, 50)
	c := m.Clone()
	before := c.PredictBatch(plans[:1])[0]
	m.Train(plans, ms, 100)
	if c.PredictBatch(plans[:1])[0] != before {
		t.Fatalf("clone shares state")
	}
}

// TestMSCNCloneLeavesSourceUntouched: cloning reads the source model
// and writes nothing to it, so training the source after a Clone takes
// the same steps as training it without one, and two clones of one
// model are the same model.
func TestMSCNCloneLeavesSourceUntouched(t *testing.T) {
	plans, ms := synthPlans(50, 4)
	cloned, plain := New(testFeaturizer(), 1), New(testFeaturizer(), 1)
	cloned.Train(plans, ms, 30)
	plain.Train(plans, ms, 30)
	a, b := cloned.Clone(), cloned.Clone()
	cloned.Train(plans, ms, 30)
	plain.Train(plans, ms, 30)
	weightsEqual(t, cloned, plain, "source trained after a Clone")
	a.Train(plans, ms, 30)
	b.Train(plans, ms, 30)
	weightsEqual(t, a, b, "two clones trained alike")
}

func TestMSCNSetFeaturizerDimCheck(t *testing.T) {
	m := New(testFeaturizer(), 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	s2 := catalog.NewSchema("other")
	s2.AddTable(catalog.NewTable("a", catalog.Column{Name: "x", Type: catalog.IntCol, Width: 8}))
	s2.AddTable(catalog.NewTable("b", catalog.Column{Name: "y", Type: catalog.IntCol, Width: 8}))
	m.SetFeaturizer(&encoding.Featurizer{Enc: encoding.New(s2)})
}

func TestMSCNNonNegativeAndNamed(t *testing.T) {
	m := New(testFeaturizer(), 7)
	if m.Name() != "mscn" {
		t.Fatalf("name = %q", m.Name())
	}
	plans, _ := synthPlans(10, 5)
	for _, v := range m.PredictBatch(plans) {
		if v < 0 {
			t.Fatalf("negative prediction")
		}
	}
	if m.NumParams() == 0 {
		t.Fatalf("no params")
	}
}
