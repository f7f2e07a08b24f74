package planner

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/dbenv"
	"repro/internal/sqlparse"
)

// Thresholds for physical operator selection.
const (
	// indexScanMaxSel: above this selectivity a sequential scan beats the
	// random heap fetches of an index scan.
	indexScanMaxSel = 0.20
	// nlSoftDisableProduct mirrors PostgreSQL's disable_cost behaviour:
	// even with only enable_nestloop on, a cross product above this size
	// falls back to a hash join rather than an unbounded quadratic plan.
	nlSoftDisableProduct = 5e7
)

// Planner builds physical plans for one dataset under one knob setting.
type Planner struct {
	Schema *catalog.Schema
	Stats  *catalog.Stats
	Knobs  dbenv.Knobs
}

// New constructs a planner.
func New(schema *catalog.Schema, stats *catalog.Stats, knobs dbenv.Knobs) *Planner {
	return &Planner{Schema: schema, Stats: stats, Knobs: knobs}
}

// Plan resolves the query against the schema and produces a physical plan.
func (pl *Planner) Plan(q *sqlparse.Query) (*Node, error) {
	if err := q.Resolve(pl.Schema); err != nil {
		return nil, err
	}
	return pl.PlanResolved(q)
}

// PlanResolved plans an already-resolved query, skipping name resolution —
// the template-cache hit path: the query cache stores one resolved
// skeleton per fingerprint, and each hit binds fresh literals into a
// clone and re-plans it here. Everything literal-dependent — literal
// coercion, selectivity estimation, and the operator choices that hang
// off it (index-vs-seq scan, join algorithm and order) — reruns from
// scratch, which is what keeps a cache-hit plan bit-identical to planning
// the same SQL cold.
func (pl *Planner) PlanResolved(q *sqlparse.Query) (*Node, error) {
	pl.coerceLiterals(q)
	// Group predicates by table.
	tablePreds := make(map[string][]sqlparse.Predicate)
	for _, p := range q.Preds {
		tablePreds[p.Col.Table] = append(tablePreds[p.Col.Table], p)
	}
	// Base scans.
	scans := make(map[string]*Node, len(q.Tables))
	for _, t := range q.Tables {
		if _, dup := scans[t.Name]; dup {
			return nil, fmt.Errorf("planner: self-joins unsupported (table %q twice)", t.Name)
		}
		scans[t.Name] = pl.buildScan(t.Name, tablePreds[t.Name])
	}

	root, err := pl.joinTables(q, scans)
	if err != nil {
		return nil, err
	}

	// Aggregation.
	hasAgg := len(q.GroupBy) > 0
	for _, s := range q.Select {
		if s.Agg != sqlparse.AggNone {
			hasAgg = true
		}
	}
	if hasAgg {
		root, err = pl.buildAggregate(q, root)
		if err != nil {
			return nil, err
		}
	}

	// ORDER BY.
	if len(q.OrderBy) > 0 {
		sortCols := make([]int, len(q.OrderBy))
		sortDesc := make([]bool, len(q.OrderBy))
		for i, o := range q.OrderBy {
			ci := root.ColIndex(o.Col.Table, o.Col.Column)
			if ci < 0 {
				return nil, fmt.Errorf("planner: ORDER BY column %s not in output", o.Col)
			}
			sortCols[i] = ci
			sortDesc[i] = o.Desc
		}
		root = &Node{
			Op: Sort, Children: []*Node{root},
			SortCols: sortCols, SortDesc: sortDesc,
			Cols: root.Cols, EstRows: root.EstRows, EstWidth: root.EstWidth,
			Limit: -1, EstIn1: root.EstRows,
		}
	}
	root.Limit = -1
	if q.Limit >= 0 {
		root.Limit = q.Limit
	}
	return root, nil
}

// coerceLiterals rewrites raw integer literals compared against float
// columns into the engine's scaled fixed-point representation (I = v×100),
// so predicate evaluation and histogram lookups operate in one unit system.
func (pl *Planner) coerceLiterals(q *sqlparse.Query) {
	for pi := range q.Preds {
		p := &q.Preds[pi]
		col, ok := pl.Schema.Table(p.Col.Table).Col(p.Col.Column)
		if !ok || col.Type != catalog.FloatCol {
			continue
		}
		for ai := range p.Args {
			a := &p.Args[ai]
			if !a.IsStr && !a.Null && !a.IsFloat {
				a.I *= 100
				a.IsFloat = true
			}
		}
	}
}

// buildScan chooses between a sequential scan and an index scan for one
// table under the current knobs and statistics.
func (pl *Planner) buildScan(table string, preds []sqlparse.Predicate) *Node {
	t := pl.Schema.Table(table)
	ts := pl.Stats.Table(table)
	rows := float64(1)
	if ts != nil {
		rows = float64(ts.RowCount)
	}
	sel := 1.0
	for _, p := range preds {
		sel *= PredSelectivity(pl.Stats, p)
	}
	est := math.Max(1, rows*sel)

	// Candidate index predicate: the most selective eq/range predicate on
	// an indexed column.
	var idxDef catalog.IndexDef
	var idxPred *sqlparse.Predicate
	bestSel := indexScanMaxSel
	if pl.Knobs.EnableIndexScan {
		for i, p := range preds {
			if !indexableOp(p.Op) {
				continue
			}
			def, ok := pl.Schema.IndexOn(table, p.Col.Column)
			if !ok {
				continue
			}
			ps := PredSelectivity(pl.Stats, p)
			if ps < bestSel {
				bestSel, idxDef, idxPred = ps, def, &preds[i]
			}
		}
	}

	n := &Node{
		Table: table, Cols: t.ColInfos(), EstRows: est, EstWidth: t.RowWidth(),
		Selectivity: sel, Limit: -1, EstIn1: rows,
	}
	if idxPred != nil {
		n.Op = IndexScan
		n.Index = idxDef.Name
		n.EstIn1 = math.Max(1, rows*bestSel) // expected index matches
		ip := CompilePred(t.ColIndex(idxPred.Col.Column), *idxPred)
		n.IndexPred = &ip
		for _, p := range preds {
			if p.Col == idxPred.Col && p.Op == idxPred.Op {
				continue // served by the index
			}
			n.Preds = append(n.Preds, CompilePred(t.ColIndex(p.Col.Column), p))
		}
		return n
	}
	n.Op = SeqScan
	for _, p := range preds {
		n.Preds = append(n.Preds, CompilePred(t.ColIndex(p.Col.Column), p))
	}
	return n
}

// indexableOp reports whether a B+tree index can serve the operator.
func indexableOp(op sqlparse.CmpOp) bool {
	switch op {
	case sqlparse.OpEq, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe, sqlparse.OpBetween:
		return true
	}
	return false
}

// joinTables builds a left-deep join tree greedily: start from the smallest
// scan, repeatedly attach the connected table yielding the smallest
// estimated intermediate result.
func (pl *Planner) joinTables(q *sqlparse.Query, scans map[string]*Node) (*Node, error) {
	if len(q.Tables) == 1 {
		return scans[q.Tables[0].Name], nil
	}
	type edge struct {
		l, r sqlparse.ColRef
	}
	adj := make(map[string][]edge)
	for _, j := range q.Joins {
		adj[j.Left.Table] = append(adj[j.Left.Table], edge{j.Left, j.Right})
		adj[j.Right.Table] = append(adj[j.Right.Table], edge{j.Right, j.Left})
	}

	// Seed with the smallest scan that participates in a join.
	var current *Node
	joined := make(map[string]bool)
	for _, t := range q.Tables {
		n := scans[t.Name]
		if len(adj[t.Name]) == 0 {
			continue
		}
		if current == nil || n.EstRows < current.EstRows {
			current = n
		}
	}
	if current == nil {
		return nil, fmt.Errorf("planner: %d tables but no join conditions", len(q.Tables))
	}
	joined[current.Table] = true
	currentTables := map[string]bool{current.Table: true}

	for len(joined) < len(q.Tables) {
		// Find the best next (connected) table.
		var bestNode *Node
		var bestEdge edge
		bestEst := math.Inf(1)
		for tab := range currentTables {
			for _, e := range adj[tab] {
				other := e.r.Table
				if joined[other] {
					continue
				}
				est := pl.joinEstRows(current.EstRows, scans[other].EstRows, e.l, e.r)
				if est < bestEst {
					bestEst, bestNode, bestEdge = est, scans[other], e
				}
			}
		}
		if bestNode == nil {
			// Disconnected join graph: no cross products in our workloads.
			return nil, fmt.Errorf("planner: disconnected join graph")
		}
		lc := current.ColIndex(bestEdge.l.Table, bestEdge.l.Column)
		rc := bestNode.ColIndex(bestEdge.r.Table, bestEdge.r.Column)
		if lc < 0 || rc < 0 {
			return nil, fmt.Errorf("planner: join column resolution failed for %s = %s", bestEdge.l, bestEdge.r)
		}
		current = pl.chooseJoin(current, bestNode, lc, rc, bestEst)
		joined[bestNode.Table] = true
		currentTables[bestNode.Table] = true
		// The composite node spans several tables; track them for adjacency.
		for _, c := range current.Cols {
			currentTables[c.Table] = true
		}
	}
	return current, nil
}

// joinEstRows estimates |L ⋈ R|.
func (pl *Planner) joinEstRows(lRows, rRows float64, l, r sqlparse.ColRef) float64 {
	return math.Max(1, lRows*rRows*JoinSelectivity(pl.Stats, l, r))
}

// chooseJoin picks the physical join operator under the knobs, using
// simple cost proxies (hash: linear; merge: sort cost; NL: quadratic).
func (pl *Planner) chooseJoin(l, r *Node, lc, rc int, est float64) *Node {
	nl, nr := l.EstRows, r.EstRows
	type cand struct {
		op    OpType
		proxy float64
	}
	cands := make([]cand, 0, 3) // at most one per join knob; stays on the stack
	if pl.Knobs.EnableHashJoin {
		cands = append(cands, cand{HashJoin, nl + 1.5*nr + est})
	}
	if pl.Knobs.EnableMergeJoin {
		cands = append(cands, cand{MergeJoin, nl*safeLog2(nl) + nr*safeLog2(nr) + est})
	}
	if pl.Knobs.EnableNestLoop {
		cands = append(cands, cand{NestedLoop, nl*nr*0.01 + nl + nr})
	}
	if len(cands) == 0 {
		cands = append(cands, cand{NestedLoop, nl * nr})
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.proxy < best.proxy {
			best = c
		}
	}
	// Soft disable: a quadratic blow-up falls back to hash join as
	// PostgreSQL's disable_cost would.
	if best.op == NestedLoop && nl*nr > nlSoftDisableProduct {
		best.op = HashJoin
	}
	// Build side is the smaller input; keep left=probe convention by
	// swapping so the right child is always the build side.
	if best.op == HashJoin && nl < nr {
		l, r, lc, rc = r, l, rc, lc
	}

	// The output schema is built once, after the sides are final.
	cols := make([]ColInfo, 0, len(l.Cols)+len(r.Cols))
	cols = append(append(cols, l.Cols...), r.Cols...)
	width := l.EstWidth + r.EstWidth
	switch best.op {
	case HashJoin:
		return &Node{
			Op: HashJoin, Children: []*Node{l, r},
			JoinLeftCol: lc, JoinRightCol: rc,
			Cols: cols, EstRows: est, EstWidth: width, Limit: -1,
			EstIn1: l.EstRows, EstIn2: r.EstRows,
		}
	case MergeJoin:
		ls := pl.ensureSorted(l, lc)
		rs := pl.ensureSorted(r, rc)
		return &Node{
			Op: MergeJoin, Children: []*Node{ls, rs},
			JoinLeftCol: lc, JoinRightCol: rc,
			Cols: cols, EstRows: est, EstWidth: width, Limit: -1,
			EstIn1: l.EstRows, EstIn2: r.EstRows,
		}
	default:
		// Nested loop rescans its inner side: materialize it once.
		mat := &Node{
			Op: Materialize, Children: []*Node{r},
			Cols: r.Cols, EstRows: r.EstRows, EstWidth: r.EstWidth, Limit: -1,
			EstIn1: r.EstRows,
		}
		return &Node{
			Op: NestedLoop, Children: []*Node{l, mat},
			JoinLeftCol: lc, JoinRightCol: rc,
			Cols: cols, EstRows: est, EstWidth: width, Limit: -1,
			EstIn1: l.EstRows, EstIn2: r.EstRows,
		}
	}
}

// ensureSorted wraps n in a Sort on col unless it is an index scan already
// delivering that order.
func (pl *Planner) ensureSorted(n *Node, col int) *Node {
	if n.Op == IndexScan && n.IndexPred != nil && n.IndexPred.Col == col {
		return n
	}
	return &Node{
		Op: Sort, Children: []*Node{n},
		SortCols: []int{col}, SortDesc: []bool{false},
		Cols: n.Cols, EstRows: n.EstRows, EstWidth: n.EstWidth, Limit: -1,
		EstIn1: n.EstRows,
	}
}

// buildAggregate constructs the Aggregate node for GROUP BY / aggregate
// select lists.
func (pl *Planner) buildAggregate(q *sqlparse.Query, input *Node) (*Node, error) {
	groupCols := make([]int, len(q.GroupBy))
	outCols := make([]ColInfo, 0, len(q.GroupBy)+len(q.Select))
	for i, g := range q.GroupBy {
		ci := input.ColIndex(g.Table, g.Column)
		if ci < 0 {
			return nil, fmt.Errorf("planner: GROUP BY column %s not in input", g)
		}
		groupCols[i] = ci
		outCols = append(outCols, input.Cols[ci])
	}
	var aggs []AggSpec
	for _, s := range q.Select {
		if s.Agg == sqlparse.AggNone {
			continue
		}
		spec := AggSpec{Func: s.Agg, Col: -1}
		if s.Col.Column != "" {
			ci := input.ColIndex(s.Col.Table, s.Col.Column)
			if ci < 0 {
				return nil, fmt.Errorf("planner: aggregate column %s not in input", s.Col)
			}
			spec.Col = ci
		}
		aggs = append(aggs, spec)
		outCols = append(outCols, ColInfo{Column: string(s.Agg), Type: catalog.IntCol, Width: 8})
	}
	est := GroupEstimate(pl.Stats, q.GroupBy, input.EstRows)
	return &Node{
		Op: Aggregate, Children: []*Node{input},
		GroupCols: groupCols, Aggs: aggs,
		Cols: outCols, EstRows: est, EstWidth: 8 * len(outCols), Limit: -1,
		EstIn1: input.EstRows,
	}, nil
}

func safeLog2(n float64) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(n)
}
