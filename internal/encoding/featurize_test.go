package encoding

import (
	"math"
	"testing"

	"repro/internal/dbenv"
	"repro/internal/featred"
	"repro/internal/planner"
	"repro/internal/snapshot"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// refEncodeNode is the node encoding as it stood before the into-path: the
// allocating composition the flat featurization must match bit for bit.
func refEncodeNode(e *Encoder, n *planner.Node) []float64 {
	v := make([]float64, e.Dim())
	v[int(n.Op)] = 1
	off := int(planner.NumOpTypes)
	if n.Table != "" {
		if i, ok := e.tableIdx[n.Table]; ok {
			v[off+i] = 1
		}
	}
	off += len(e.tables)
	if n.Index != "" {
		if i, ok := e.indexIdx[n.Index]; ok {
			v[off+i] = 1
		}
	}
	off += len(e.indexes)

	child1, child2 := 0.0, 0.0
	if len(n.Children) > 0 {
		child1 = n.Children[0].EstRows
	}
	if len(n.Children) > 1 {
		child2 = n.Children[1].EstRows
	}
	limit := 0.0
	if n.Limit >= 0 {
		limit = 1
	}
	num := []float64{
		log1p(n.EstRows),
		log1p(float64(n.EstWidth)),
		n.Selectivity,
		float64(len(n.Preds)),
		float64(len(n.Children)),
		log1p(child1),
		log1p(child2),
		float64(len(n.SortCols)),
		float64(len(n.GroupCols)),
		float64(len(n.Aggs)),
		limit,
		log1p(n.EstRows * float64(n.EstWidth) / 8192),
	}
	copy(v[off:], num)
	return v
}

// refNode is Featurizer.Node as it stood before the into-path: encode,
// append the snapshot block (zeros without a snapshot for the node's
// environment), then project through the mask — four allocations a node.
// Snapshot.Features has its own reference in internal/snapshot.
func refNode(f *Featurizer, n *planner.Node) []float64 {
	v := refEncodeNode(f.Enc, n)
	if f.Snaps != nil {
		if s := f.Snaps[n.EnvID]; s != nil {
			v = append(v, s.Features(n)...)
		} else {
			v = append(v, make([]float64, snapshot.FeatureDim)...)
		}
	}
	if f.Mask != nil {
		return featred.ApplyInto(f.Mask, v, make([]float64, 0, len(v)))
	}
	return v
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// tpchPlans plans every TPC-H template once per knob setting of a small
// sampled environment set, so the corpus holds every operator the planner
// emits (index scans, all three joins, Materialize, Sort, Aggregate).
// Nodes are tagged with environment 0, except that every third plan's
// first leaf claims environment 999 — one no featurizer has a snapshot for.
func tpchPlans(t *testing.T) []*planner.Node {
	t.Helper()
	gen := workload.NewGenerator(tpch, 1)
	var plans []*planner.Node
	ops := map[planner.OpType]bool{}
	for _, env := range append(dbenv.SampleSet(3, 1), dbenv.Default()) {
		pl := planner.New(tpch.Schema, tpch.Stats, env.Knobs)
		for _, tpl := range workload.TPCHTemplates() {
			sql, err := gen.Instantiate(tpl)
			if err != nil {
				t.Fatal(err)
			}
			root, err := pl.Plan(sqlparse.MustParse(sql))
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			root.Walk(func(n *planner.Node) { ops[n.Op] = true })
			if len(plans)%3 == 0 {
				leaf := root
				for len(leaf.Children) > 0 {
					leaf = leaf.Children[0]
				}
				leaf.EnvID = 999
			}
			plans = append(plans, root)
		}
	}
	if len(ops) < int(planner.NumOpTypes)-1 {
		t.Fatalf("corpus covers only %d operator types: %v", len(ops), ops)
	}
	return plans
}

// featurizerVariants returns the four shapes a Featurizer takes: bare,
// snapshot only, mask only, both. They are built the way benchmark/fit.go
// builds its own — a struct literal, then Snaps and Mask assigned — which
// is why a Featurizer may cache nothing derived from them.
func featurizerVariants(t *testing.T) map[string]*Featurizer {
	t.Helper()
	var samples []snapshot.OpSample
	for _, op := range planner.AllOpTypes() {
		for k := 1; k <= 6; k++ {
			n1, n2 := float64(100*k*k), float64(37*k)
			samples = append(samples, snapshot.OpSample{Op: op, N1: n1, N2: n2, Ms: 0.002*n1 + 0.0005*n2 + 0.3})
		}
	}
	snap, err := snapshot.Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Featurizer{}
	for _, withSnaps := range []bool{false, true} {
		for _, withMask := range []bool{false, true} {
			f := &Featurizer{Enc: New(tpch.Schema)}
			name := "bare"
			if withSnaps {
				f.Snaps = map[int]*snapshot.Snapshot{0: snap}
				name = "snaps"
			}
			if withMask {
				mask := make([]bool, f.RawDim())
				for i := range mask {
					mask[i] = i%3 != 1 // drops one-hots, numerics and snapshot dims alike
				}
				f.Mask = mask
				name += "+mask"
			}
			out[name] = f
		}
	}
	return out
}

// TestFeaturizeMatchesReference pins the flat featurization bit for bit:
// on every TPC-H template, masked and unmasked, with and without
// snapshots (a node without one gets the zero block), every row of
// Featurize, Node, PlanInto and PlanMatrix equals the old
// four-allocation composition; Pre is pre-order, Post is post-order, and
// each Post entry is the very slice its Pre twin is.
func TestFeaturizeMatchesReference(t *testing.T) {
	plans := tpchPlans(t)
	for name, f := range featurizerVariants(t) {
		dim := f.Dim()
		for pi, root := range plans {
			var pre, post []*planner.Node
			root.Walk(func(n *planner.Node) { pre = append(pre, n) })
			var rec func(n *planner.Node)
			rec = func(n *planner.Node) {
				for _, c := range n.Children {
					rec(c)
				}
				post = append(post, n)
			}
			rec(root)

			fp := f.Featurize(root)
			if fp.Root != root || fp.NumNodes() != len(pre) || len(fp.Post) != len(pre) {
				t.Fatalf("%s plan %d: %d pre / %d post rows for %d nodes", name, pi, len(fp.Pre), len(fp.Post), len(pre))
			}
			m := f.PlanMatrix(root)
			flat := make([]float64, len(pre)*dim)
			f.PlanInto(root, flat)
			if m.Rows != len(pre) || m.Cols != dim {
				t.Fatalf("%s plan %d: PlanMatrix is %dx%d, want %dx%d", name, pi, m.Rows, m.Cols, len(pre), dim)
			}
			at := map[*planner.Node]int{}
			for i, n := range pre {
				at[n] = i
				want := refNode(f, n)
				for label, got := range map[string][]float64{
					"Featurize.Pre": fp.Pre[i], "Node": f.Node(n),
					"PlanInto": flat[i*dim : (i+1)*dim], "PlanMatrix": m.RowView(i),
				} {
					if !sameBits(got, want) {
						t.Fatalf("%s plan %d node %d (%v, env %d): %s = %v, reference %v", name, pi, i, n.Op, n.EnvID, label, got, want)
					}
				}
			}
			for j, n := range post {
				twin := fp.Pre[at[n]]
				if len(fp.Post[j]) != dim || &fp.Post[j][0] != &twin[0] {
					t.Fatalf("%s plan %d: Post[%d] is not the slice Pre[%d] is", name, pi, j, at[n])
				}
			}
		}
	}
}

// TestFeaturizeRowsAreOwned: a FeaturizedPlan's rows may be cached and
// read by concurrent requests, so they may alias neither the
// featurizer's scratch nor each other's spare capacity. Featurizing other
// plans (and running every other into-path entry point) must leave an
// earlier plan's rows untouched, and appending to a row must not run into
// its neighbour.
func TestFeaturizeRowsAreOwned(t *testing.T) {
	plans := tpchPlans(t)
	f := featurizerVariants(t)["snaps+mask"]
	a := f.Featurize(plans[2]) // a three-way join
	if a.NumNodes() < 4 {
		t.Fatalf("want a multi-node plan, got %d nodes", a.NumNodes())
	}
	saved := make([][]float64, len(a.Pre))
	for i, row := range a.Pre {
		saved[i] = append([]float64(nil), row...)
	}
	for _, root := range plans {
		f.Featurize(root)
		f.PlanMatrix(root)
		f.Node(root)
	}
	for i, row := range a.Pre {
		if !sameBits(row, saved[i]) {
			t.Fatalf("row %d of an earlier plan changed under later featurization: %v, was %v", i, row, saved[i])
		}
	}
	grown := append(a.Pre[0], 42)
	if !sameBits(a.Pre[1], saved[1]) {
		t.Fatalf("append on row 0 ran into row 1")
	}
	_ = grown
}
