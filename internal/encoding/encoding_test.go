package encoding

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/featred"
	"repro/internal/planner"
	"repro/internal/snapshot"
	"repro/internal/sqlparse"
)

var tpch = datagen.TPCH(1)

func planOf(t *testing.T, sql string) *planner.Node {
	t.Helper()
	pl := planner.New(tpch.Schema, tpch.Stats, dbenv.DefaultKnobs())
	n, err := pl.Plan(sqlparse.MustParse(sql))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestEncoderDimAndNames(t *testing.T) {
	e := New(tpch.Schema)
	if e.Dim() != len(e.FeatureNames()) {
		t.Fatalf("dim %d != names %d", e.Dim(), len(e.FeatureNames()))
	}
	// 8 ops + 8 tables + 13 indexes + 12 numerics.
	if e.Dim() != 8+8+13+12 {
		t.Fatalf("dim = %d", e.Dim())
	}
}

func TestEncodeNodeOneHots(t *testing.T) {
	e := New(tpch.Schema)
	n := planOf(t, "SELECT * FROM orders WHERE o_orderkey = 7")
	v := make([]float64, e.Dim())
	e.EncodeNodeInto(n, v)
	names := e.FeatureNames()
	hot := map[string]bool{}
	for i, x := range v {
		if x == 1 {
			hot[names[i]] = true
		}
	}
	if !hot["op:Index Scan"] || !hot["tbl:orders"] || !hot["idx:pk_orders"] {
		t.Fatalf("one-hots wrong: %v", hot)
	}
}

func TestEncodeEveryPlanNode(t *testing.T) {
	e := New(tpch.Schema)
	n := planOf(t, "SELECT COUNT(*) FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey GROUP BY o_orderpriority")
	var vecs [][]float64
	n.Walk(func(n *planner.Node) {
		v := make([]float64, e.Dim())
		e.EncodeNodeInto(n, v)
		vecs = append(vecs, v)
	})
	if len(vecs) != n.CountNodes() {
		t.Fatalf("vecs = %d, nodes = %d", len(vecs), n.CountNodes())
	}
	for _, v := range vecs {
		if len(v) != e.Dim() {
			t.Fatalf("ragged encoding")
		}
	}
}

func TestFeaturizerMaskAndSnapshot(t *testing.T) {
	e := New(tpch.Schema)
	f := &Featurizer{Enc: e}
	if f.RawDim() != e.Dim() || f.Dim() != e.Dim() {
		t.Fatalf("bare featurizer dims wrong")
	}
	// Attach an (empty-coefficient) snapshot: dims grow by the block.
	snap, err := snapshot.Fit([]snapshot.OpSample{{Op: planner.SeqScan, N1: 10, Ms: 1}})
	if err != nil {
		t.Fatal(err)
	}
	f.Snaps = map[int]*snapshot.Snapshot{0: snap}
	if f.RawDim() != e.Dim()+snapshot.FeatureDim {
		t.Fatalf("snapshot block not appended")
	}
	if len(f.Names()) != f.RawDim() {
		t.Fatalf("names misaligned")
	}
	// Mask halves the dims.
	mask := make([]bool, f.RawDim())
	for i := 0; i < len(mask); i += 2 {
		mask[i] = true
	}
	f.Mask = mask
	if f.Dim() != featred.CountKept(mask) {
		t.Fatalf("masked dim wrong")
	}
	n := planOf(t, "SELECT * FROM orders WHERE o_orderkey = 7")
	if len(f.Node(n)) != f.Dim() {
		t.Fatalf("masked vector wrong length")
	}
	// Unknown env: snapshot block is zero padding, not a panic.
	n.Walk(func(x *planner.Node) { x.EnvID = 999 })
	_ = f.Node(n)
}
