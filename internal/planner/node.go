// Package planner turns resolved SQL ASTs into physical plan trees: it
// estimates cardinalities from catalog statistics, picks physical operators
// under the environment's knob settings (enable_indexscan, enable_hashjoin,
// …), and annotates every node with the estimates the feature encodings and
// the PostgreSQL-style cost model consume.
package planner

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// OpType enumerates the physical operators — exactly the operator set of
// the paper's Table I.
type OpType int

// The physical operator vocabulary.
const (
	SeqScan OpType = iota
	IndexScan
	Sort
	HashJoin
	MergeJoin
	NestedLoop
	Aggregate
	Materialize
	NumOpTypes // count sentinel for one-hot encodings
)

// String implements fmt.Stringer.
func (o OpType) String() string {
	switch o {
	case SeqScan:
		return "Seq Scan"
	case IndexScan:
		return "Index Scan"
	case Sort:
		return "Sort"
	case HashJoin:
		return "Hash Join"
	case MergeJoin:
		return "Merge Join"
	case NestedLoop:
		return "Nested Loop"
	case Aggregate:
		return "Aggregate"
	case Materialize:
		return "Materialize"
	}
	return fmt.Sprintf("OpType(%d)", int(o))
}

// AllOpTypes lists every operator type in encoding order.
func AllOpTypes() []OpType {
	ops := make([]OpType, NumOpTypes)
	for i := range ops {
		ops[i] = OpType(i)
	}
	return ops
}

// ColInfo describes one output column of a plan node. A scan's Cols is
// its table's shared catalog list, so Cols elements are read-only.
type ColInfo = catalog.ColInfo

// AggSpec is one aggregate computed by an Aggregate node.
type AggSpec struct {
	Func sqlparse.AggFunc
	Col  int // input column ordinal; -1 for COUNT(*)
}

// Node is one physical plan operator. The planner fills the Est* fields;
// the engine fills Actual* during execution.
type Node struct {
	Op       Op
	Children []*Node

	// Scans.
	Table     string
	Index     string         // IndexScan only
	Preds     []CompiledPred // filter applied at this node
	IndexPred *CompiledPred  // the predicate served by the index itself

	// Joins: ordinals into the left/right child output schemas.
	JoinLeftCol, JoinRightCol int

	// Sort keys (ordinals into child output), with descending flags.
	SortCols []int
	SortDesc []bool

	// Aggregate.
	GroupCols []int
	Aggs      []AggSpec

	// Root-only: LIMIT pushed into execution.
	Limit int // -1 when absent

	// Output schema.
	Cols []ColInfo

	// Planner estimates.
	EstRows     float64
	EstWidth    int
	Selectivity float64 // scans: estimated fraction retained
	// EstIn1/EstIn2 estimate the operator's input cardinalities (the n,
	// n1, n2 of the paper's Table I formulas): relation rows for a seq
	// scan, expected index matches for an index scan, child output
	// estimates elsewhere. The snapshot features evaluate the fitted
	// logical formulas at these estimates.
	EstIn1, EstIn2 float64

	// EnvID tags every node of a labeled plan with the environment it was
	// executed under, so the featurizer can attach that environment's
	// feature snapshot. Set by workload collection; 0 by default.
	EnvID int

	// Engine actuals (set by execution).
	ActualRows int64
	ActualMs   float64 // this node's own time, excluding children
	// ActualIn1/ActualIn2 record the operator's input cardinalities (the
	// paper's n, n1, n2 of Table I); the feature-snapshot regression fits
	// its logical cost formulas against these.
	ActualIn1, ActualIn2 float64
}

// Op aliases OpType for brevity in struct literals.
type Op = OpType

// CompiledPred is a predicate bound to a column ordinal with a fast
// evaluation closure; compilation happens once per plan, keeping the
// executor's per-row path allocation-free.
type CompiledPred struct {
	Col  int // ordinal in the node's input schema
	Src  sqlparse.Predicate
	Eval func(v catalog.Value) bool
}

// TotalMs sums the per-node actual times over the whole subtree.
func (n *Node) TotalMs() float64 {
	t := n.ActualMs
	for _, c := range n.Children {
		t += c.TotalMs()
	}
	return t
}

// Walk visits the subtree pre-order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// CountNodes returns the subtree size.
func (n *Node) CountNodes() int {
	c := 1
	for _, ch := range n.Children {
		c += ch.CountNodes()
	}
	return c
}

// ColIndex finds the ordinal of (table, column) in the node's output.
func (n *Node) ColIndex(table, column string) int {
	for i, c := range n.Cols {
		if c.Table == table && c.Column == column {
			return i
		}
	}
	return -1
}

// Explain renders the plan tree in an EXPLAIN-ANALYZE-like format.
func (n *Node) Explain() string {
	var sb strings.Builder
	n.explain(&sb, 0)
	return sb.String()
}

func (n *Node) explain(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.Op.String())
	if n.Table != "" {
		fmt.Fprintf(sb, " on %s", n.Table)
	}
	if n.Index != "" {
		fmt.Fprintf(sb, " using %s", n.Index)
	}
	fmt.Fprintf(sb, " (est rows=%.0f width=%d)", n.EstRows, n.EstWidth)
	if n.ActualRows > 0 || n.ActualMs > 0 {
		fmt.Fprintf(sb, " (actual rows=%d time=%.3fms)", n.ActualRows, n.ActualMs)
	}
	sb.WriteString("\n")
	for _, c := range n.Children {
		c.explain(sb, depth+1)
	}
}
