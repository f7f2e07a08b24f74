package engine

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/catalog"
	"repro/internal/planner"
	"repro/internal/storage"
)

// This file keeps the executor as it was before operators passed row-id
// tuples: every operator returns a []catalog.Row, scans return the heap's
// rows, sort is sort.SliceStable over a copy of its input, each join output
// row is one heap object holding copies of both sides' values, and
// aggregate builds a string key per row. TestMatchesReference runs every
// workload template through both and requires identical rows, errors,
// actuals and totals. The bodies below are verbatim apart from the ref
// prefixes, the sort and joins taking their inputs from refExec, and
// RefResult.

// RefResult is one reference execution: the output rows and the simulated
// latency.
type RefResult struct {
	Rows    []catalog.Row
	TotalMs float64
}

// RefExecuteSeq is ExecuteSeq over the reference operators. Exported for
// the differential test, which lives in package engine_test because it
// draws its queries from internal/workload (which imports engine).
func (e *Executor) RefExecuteSeq(root *planner.Node, seq int64) (*RefResult, error) {
	rows, err := e.refExec(root)
	if err != nil {
		return nil, err
	}
	if root.Limit >= 0 && len(rows) > root.Limit {
		rows = rows[:root.Limit]
	}
	f := e.Env.Noise(seq)
	root.Walk(func(n *planner.Node) { n.ActualMs *= f })
	return &RefResult{Rows: rows, TotalMs: root.TotalMs()}, nil
}

// refExec runs n's children left to right, then n itself over their rows.
// Every operator returns a row slice its parent owns outright (rows
// themselves may be shared with the heap and are never written).
func (e *Executor) refExec(n *planner.Node) ([]catalog.Row, error) {
	var in [2][]catalog.Row // no operator has more than two inputs
	for i, c := range n.Children {
		rows, err := e.refExec(c)
		if err != nil {
			return nil, err
		}
		in[i] = rows
	}
	switch n.Op {
	case planner.SeqScan:
		return e.refExecSeqScan(n)
	case planner.IndexScan:
		return e.refExecIndexScan(n)
	case planner.Sort:
		return e.refExecSort(n, in[0]), nil
	case planner.HashJoin:
		return e.refExecHashJoin(n, in[0], in[1])
	case planner.MergeJoin:
		return e.refExecMergeJoin(n, in[0], in[1])
	case planner.NestedLoop:
		return e.refExecNestedLoop(n, in[0], in[1])
	case planner.Aggregate:
		return e.refExecAggregate(n, in[0])
	case planner.Materialize:
		return e.refExecMaterialize(n, in[0]), nil
	}
	return nil, fmt.Errorf("engine: unknown operator %v", n.Op)
}

func (e *Executor) refExecSeqScan(n *planner.Node) ([]catalog.Row, error) {
	h := e.DB.Heap(n.Table)
	if h == nil {
		return nil, fmt.Errorf("engine: no heap for table %q", n.Table)
	}
	var out []catalog.Row
	total := h.NumRows()
	for id := 0; id < total; id++ {
		row := h.Get(id)
		if matchAll(n.Preds, row) {
			out = append(out, row)
		}
	}
	c := counters{
		seqPages: h.NumPages(),
		tuples:   int64(total),
		startups: 1,
		relPages: h.NumPages(),
		parallel: true,
	}
	n.ActualIn1 = float64(total)
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

func (e *Executor) refExecIndexScan(n *planner.Node) ([]catalog.Row, error) {
	h := e.DB.Heap(n.Table)
	idx := e.DB.Index(n.Index)
	if h == nil || idx == nil {
		return nil, fmt.Errorf("engine: missing heap/index for %q/%q", n.Table, n.Index)
	}
	lo, hi, loInc, hiInc := indexBounds(n.IndexPred)
	var out []catalog.Row
	var matches int64
	idx.Range(lo, hi, loInc, hiInc, func(id int) bool {
		matches++
		row := h.Get(id)
		if matchAll(n.Preds, row) {
			out = append(out, row)
		}
		return true
	})
	leafPages := int64(math.Ceil(float64(matches) / 256))
	c := counters{
		randPages: int64(idx.Height()) + leafPages + matches, // descent + leaves + heap fetches
		idxTuples: matches,
		tuples:    matches,
		startups:  1,
		relPages:  h.NumPages(),
	}
	n.ActualIn1 = float64(matches)
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

func (e *Executor) refExecMaterialize(n *planner.Node, in []catalog.Row) []catalog.Row {
	bytes := int64(len(in)) * int64(n.EstWidth)
	passes := e.Env.SpillPasses(bytes)
	c := counters{
		tuples:   int64(len(in)),
		seqPages: 2 * int64(passes) * (bytes/storage.PageSize + 1),
		startups: 1,
		relPages: bytes/storage.PageSize + 1,
	}
	n.ActualIn1 = float64(len(in))
	n.ActualRows = int64(len(in))
	n.ActualMs = e.ms(c)
	return in
}

// refAggState accumulates one group.
type refAggState struct {
	key    catalog.Row
	counts []int64
	sums   []int64
	mins   []catalog.Value
	maxs   []catalog.Value
}

func (e *Executor) refExecAggregate(n *planner.Node, in []catalog.Row) ([]catalog.Row, error) {
	groups := make(map[string]*refAggState)
	order := make([]string, 0, 16)
	for _, row := range in {
		key := refGroupKey(row, n.GroupCols)
		st := groups[key]
		if st == nil {
			st = &refAggState{
				counts: make([]int64, len(n.Aggs)),
				sums:   make([]int64, len(n.Aggs)),
				mins:   make([]catalog.Value, len(n.Aggs)),
				maxs:   make([]catalog.Value, len(n.Aggs)),
			}
			for _, gc := range n.GroupCols {
				st.key = append(st.key, row[gc])
			}
			for i := range n.Aggs {
				st.mins[i] = catalog.NullVal()
				st.maxs[i] = catalog.NullVal()
			}
			groups[key] = st
			order = append(order, key)
		}
		for ai, a := range n.Aggs {
			if a.Col < 0 { // COUNT(*)
				st.counts[ai]++
				continue
			}
			v := row[a.Col]
			if v.Null {
				continue
			}
			st.counts[ai]++
			st.sums[ai] += v.I
			if st.mins[ai].Null || v.Compare(st.mins[ai]) < 0 {
				st.mins[ai] = v
			}
			if st.maxs[ai].Null || v.Compare(st.maxs[ai]) > 0 {
				st.maxs[ai] = v
			}
		}
	}
	// Scalar aggregate over empty input still yields one row.
	if len(n.GroupCols) == 0 && len(order) == 0 {
		st := &refAggState{
			counts: make([]int64, len(n.Aggs)),
			sums:   make([]int64, len(n.Aggs)),
			mins:   make([]catalog.Value, len(n.Aggs)),
			maxs:   make([]catalog.Value, len(n.Aggs)),
		}
		for i := range n.Aggs {
			st.mins[i] = catalog.NullVal()
			st.maxs[i] = catalog.NullVal()
		}
		groups[""] = st
		order = append(order, "")
	}
	out := make([]catalog.Row, 0, len(order))
	for _, key := range order {
		st := groups[key]
		row := append(catalog.Row{}, st.key...)
		for ai, a := range n.Aggs {
			switch a.Func {
			case "count":
				row = append(row, catalog.IntVal(st.counts[ai]))
			case "sum":
				row = append(row, catalog.Value{I: st.sums[ai]})
			case "avg":
				if st.counts[ai] == 0 {
					row = append(row, catalog.NullVal())
				} else {
					row = append(row, catalog.Value{I: st.sums[ai] / st.counts[ai]})
				}
			case "min":
				row = append(row, st.mins[ai])
			case "max":
				row = append(row, st.maxs[ai])
			default:
				return nil, fmt.Errorf("engine: unsupported aggregate %q", a.Func)
			}
		}
		out = append(out, row)
	}
	c := counters{
		tuples:   int64(len(in)),
		startups: 1 + int64(len(out)),
		relPages: 1,
	}
	n.ActualIn1 = float64(len(in))
	n.ActualRows = int64(len(out))
	n.ActualMs = e.ms(c)
	return out, nil
}

func refGroupKey(row catalog.Row, cols []int) string {
	if len(cols) == 0 {
		return ""
	}
	var b []byte
	for _, c := range cols {
		v := row[c]
		if v.Null {
			b = append(b, 0xFF)
		} else if v.IsStr {
			b = append(b, v.S...)
		} else {
			for s := 0; s < 64; s += 8 {
				b = append(b, byte(v.I>>s))
			}
		}
		b = append(b, 0)
	}
	return string(b)
}

func (e *Executor) refExecSort(n *planner.Node, in []catalog.Row) []catalog.Row {
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
	return rows
}

func (e *Executor) refExecHashJoin(n *planner.Node, left, right []catalog.Row) ([]catalog.Row, error) {
	// right is the build side (planner puts smaller here).
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

func (e *Executor) refExecMergeJoin(n *planner.Node, left, right []catalog.Row) ([]catalog.Row, error) {
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

func (e *Executor) refExecNestedLoop(n *planner.Node, outer, inner []catalog.Row) ([]catalog.Row, error) {
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
