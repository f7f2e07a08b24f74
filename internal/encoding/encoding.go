// Package encoding implements the "general feature engineering" of the
// paper's Figure 2(b): every plan node becomes a fixed-width vector of
// one-hot codes (operator type, table, index) and numerical values
// (estimated cardinality, width, selectivity, …), the same scheme QPPNet,
// MSCN, and the other systems surveyed in the paper's Table III use.
//
// QCFE appends feature-snapshot coefficients to these vectors and then
// prunes dimensions with feature reduction; both operate on the layout
// defined here, so FeatureNames doubles as the label set of Figure 7.
package encoding

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/planner"
)

// numericFeatures is the size of the numeric block at the end of each
// node's vector.
const numericFeatures = 12

// Encoder maps the plan nodes of one dataset to feature vectors. The
// layout is: [op one-hot | table one-hot | index one-hot | numeric block].
type Encoder struct {
	Schema *catalog.Schema

	tables   []string
	indexes  []string
	tableIdx map[string]int
	indexIdx map[string]int
}

// New builds an encoder for the schema. One-hot vocabularies are sorted so
// that feature ordinals are stable across runs.
func New(schema *catalog.Schema) *Encoder {
	e := &Encoder{
		Schema:   schema,
		tables:   schema.TableNames(),
		indexes:  schema.IndexNames(),
		tableIdx: make(map[string]int),
		indexIdx: make(map[string]int),
	}
	for i, t := range e.tables {
		e.tableIdx[t] = i
	}
	for i, ix := range e.indexes {
		e.indexIdx[ix] = i
	}
	return e
}

// Dim returns the per-node feature-vector width.
func (e *Encoder) Dim() int {
	return int(planner.NumOpTypes) + len(e.tables) + len(e.indexes) + numericFeatures
}

// FeatureNames returns one descriptive name per dimension, aligned with
// EncodeNode's output.
func (e *Encoder) FeatureNames() []string {
	names := make([]string, 0, e.Dim())
	for _, op := range planner.AllOpTypes() {
		names = append(names, "op:"+op.String())
	}
	for _, t := range e.tables {
		names = append(names, "tbl:"+t)
	}
	for _, ix := range e.indexes {
		names = append(names, "idx:"+ix)
	}
	names = append(names,
		"num:log_est_rows", "num:log_est_width", "num:selectivity",
		"num:n_preds", "num:n_children", "num:log_child1_rows",
		"num:log_child2_rows", "num:n_sort_keys", "num:n_group_cols",
		"num:n_aggs", "num:has_limit", "num:log_est_pages",
	)
	return names
}

// EncodeNode produces the feature vector for one plan node.
func (e *Encoder) EncodeNode(n *planner.Node) []float64 {
	v := make([]float64, e.Dim())
	e.EncodeNodeInto(n, v)
	return v
}

// EncodeNodeInto writes the node's feature vector into dst (length Dim),
// overwriting every element — EncodeNode without the allocation, for
// featurizing into caller-owned storage.
func (e *Encoder) EncodeNodeInto(n *planner.Node, dst []float64) {
	dst = dst[:e.Dim()]
	off := len(dst) - numericFeatures
	hot := dst[:off]
	clear(hot)
	hot[int(n.Op)] = 1
	if n.Table != "" {
		if i, ok := e.tableIdx[n.Table]; ok {
			hot[int(planner.NumOpTypes)+i] = 1
		}
	}
	if n.Index != "" {
		if i, ok := e.indexIdx[n.Index]; ok {
			hot[int(planner.NumOpTypes)+len(e.tables)+i] = 1
		}
	}

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
	num := dst[off : off+numericFeatures]
	num[0] = log1p(n.EstRows)
	num[1] = log1p(float64(n.EstWidth))
	num[2] = n.Selectivity
	num[3] = float64(len(n.Preds))
	num[4] = float64(len(n.Children))
	num[5] = log1p(child1)
	num[6] = log1p(child2)
	num[7] = float64(len(n.SortCols))
	num[8] = float64(len(n.GroupCols))
	num[9] = float64(len(n.Aggs))
	num[10] = limit
	num[11] = log1p(n.EstRows * float64(n.EstWidth) / 8192)
}

// EncodePlan returns the per-node vectors of the whole plan in pre-order —
// the flattened representation MSCN-style set models pool over.
func (e *Encoder) EncodePlan(root *planner.Node) [][]float64 {
	var out [][]float64
	root.Walk(func(n *planner.Node) { out = append(out, e.EncodeNode(n)) })
	return out
}

func log1p(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Log1p(x)
}
