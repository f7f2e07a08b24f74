package engine

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/planner"
	"repro/internal/storage"
)

// This file keeps the executor's sort and join operators as they were
// before rows were sorted by sortRows and carved out of joinRows slabs:
// sort.SliceStable over a copy of the input, and one heap object per join
// output row. TestMatchesReference runs every workload template through
// both and requires identical rows, actuals and totals. The bodies below
// are verbatim apart from the ref prefixes.

// RefExecuteSeq is ExecuteSeq over the reference operators. Exported for
// the differential test, which lives in package engine_test because it
// draws its queries from internal/workload (which imports engine).
func (e *Executor) RefExecuteSeq(root *planner.Node, seq int64) (*Result, error) {
	rows, err := e.refExec(root)
	if err != nil {
		return nil, err
	}
	if root.Limit >= 0 && len(rows) > root.Limit {
		rows = rows[:root.Limit]
	}
	f := e.Env.Noise(seq)
	root.Walk(func(n *planner.Node) { n.ActualMs *= f })
	return &Result{Rows: rows, TotalMs: root.TotalMs()}, nil
}

func (e *Executor) refExec(n *planner.Node) ([]catalog.Row, error) {
	switch n.Op {
	case planner.SeqScan:
		return e.execSeqScan(n)
	case planner.IndexScan:
		return e.execIndexScan(n)
	case planner.Sort:
		return e.refExecSort(n)
	case planner.HashJoin:
		return e.refExecHashJoin(n)
	case planner.MergeJoin:
		return e.refExecMergeJoin(n)
	case planner.NestedLoop:
		return e.refExecNestedLoop(n)
	case planner.Aggregate:
		in, err := e.refExec(n.Children[0])
		if err != nil {
			return nil, err
		}
		return e.execAggregate(n, in)
	case planner.Materialize:
		in, err := e.refExec(n.Children[0])
		if err != nil {
			return nil, err
		}
		return e.execMaterialize(n, in), nil
	}
	return nil, fmt.Errorf("engine: unknown operator %v", n.Op)
}

func (e *Executor) refExecSort(n *planner.Node) ([]catalog.Row, error) {
	in, err := e.refExec(n.Children[0])
	if err != nil {
		return nil, err
	}
	rows := make([]catalog.Row, len(in))
	copy(rows, in)
	cols, desc := n.SortCols, n.SortDesc
	sort.SliceStable(rows, func(i, j int) bool {
		for k, c := range cols {
			cmp := rows[i][c].Compare(rows[j][c])
			if cmp == 0 {
				continue
			}
			if desc[k] {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	nn := int64(len(rows))
	comparisons := nn * ceilLog2(nn)
	bytes := nn * int64(n.EstWidth)
	passes := e.Env.SpillPasses(bytes)
	c := counters{
		tuples:   comparisons,
		seqPages: 2 * int64(passes) * (bytes/storage.PageSize + 1),
		startups: 1,
		relPages: bytes/storage.PageSize + 1,
	}
	n.ActualIn1 = float64(nn)
	n.ActualRows = nn
	n.ActualMs = e.ms(c)
	return rows, nil
}

func (e *Executor) refExecHashJoin(n *planner.Node) ([]catalog.Row, error) {
	left, err := e.refExec(n.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := e.refExec(n.Children[1]) // build side (planner puts smaller here)
	if err != nil {
		return nil, err
	}
	build := make(map[catalog.Value][]catalog.Row, len(right))
	rc := n.JoinRightCol
	for _, r := range right {
		k := r[rc]
		if k.Null {
			continue
		}
		build[k] = append(build[k], r)
	}
	var out []catalog.Row
	var matches int64
	lc := n.JoinLeftCol
	for _, l := range left {
		k := l[lc]
		if k.Null {
			continue
		}
		for _, r := range build[k] {
			matches++
			out = append(out, refConcatRows(l, r))
		}
		if len(out) > maxJoinRows {
			return nil, fmt.Errorf("engine: hash join result exceeds %d rows", maxJoinRows)
		}
	}
	buildBytes := int64(len(right)) * int64(n.Children[1].EstWidth)
	passes := e.Env.SpillPasses(buildBytes)
	totalBytes := buildBytes + int64(len(left))*int64(n.Children[0].EstWidth)
	c := counters{
		tuples:   int64(len(left)) + int64(len(right)) + matches,
		seqPages: 2 * int64(passes) * (totalBytes/storage.PageSize + 1),
		startups: 1,
		relPages: totalBytes/storage.PageSize + 1,
	}
	n.ActualIn1 = float64(len(left))
	n.ActualIn2 = float64(len(right))
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

func (e *Executor) refExecMergeJoin(n *planner.Node) ([]catalog.Row, error) {
	left, err := e.refExec(n.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := e.refExec(n.Children[1])
	if err != nil {
		return nil, err
	}
	lc, rc := n.JoinLeftCol, n.JoinRightCol
	var out []catalog.Row
	var matches int64
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		cmp := left[i][lc].Compare(right[j][rc])
		switch {
		case left[i][lc].Null:
			i++
		case right[j][rc].Null:
			j++
		case cmp < 0:
			i++
		case cmp > 0:
			j++
		default:
			// Find the full duplicate group on each side.
			i2 := i
			for i2 < len(left) && left[i2][lc].Compare(right[j][rc]) == 0 {
				i2++
			}
			j2 := j
			for j2 < len(right) && right[j2][rc].Compare(left[i][lc]) == 0 {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					matches++
					out = append(out, refConcatRows(left[a], right[b]))
				}
			}
			if len(out) > maxJoinRows {
				return nil, fmt.Errorf("engine: merge join result exceeds %d rows", maxJoinRows)
			}
			i, j = i2, j2
		}
	}
	c := counters{
		tuples:   int64(len(left)) + int64(len(right)) + matches,
		startups: 1,
		relPages: 1,
	}
	n.ActualIn1 = float64(len(left))
	n.ActualIn2 = float64(len(right))
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

func (e *Executor) refExecNestedLoop(n *planner.Node) ([]catalog.Row, error) {
	outer, err := e.refExec(n.Children[0])
	if err != nil {
		return nil, err
	}
	inner, err := e.refExec(n.Children[1])
	if err != nil {
		return nil, err
	}
	rc := n.JoinRightCol
	byKey := make(map[catalog.Value][]catalog.Row, len(inner))
	for _, r := range inner {
		if !r[rc].Null {
			byKey[r[rc]] = append(byKey[r[rc]], r)
		}
	}
	var out []catalog.Row
	lc := n.JoinLeftCol
	for _, l := range outer {
		if l[lc].Null {
			continue
		}
		for _, r := range byKey[l[lc]] {
			out = append(out, refConcatRows(l, r))
		}
		if len(out) > maxJoinRows {
			return nil, fmt.Errorf("engine: nested loop result exceeds %d rows", maxJoinRows)
		}
	}
	c := counters{
		tuples:   int64(len(outer))*int64(len(inner)) + int64(len(outer)),
		startups: 1,
		relPages: 1,
	}
	n.ActualIn1 = float64(len(outer))
	n.ActualIn2 = float64(len(inner))
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

func refConcatRows(a, b catalog.Row) catalog.Row {
	out := make(catalog.Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}
