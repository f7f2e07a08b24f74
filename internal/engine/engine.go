// Package engine executes physical plans over the storage layer and
// produces both the query results and the simulated execution time that
// labels every training example.
//
// Each operator does real row work (predicate evaluation, hashing,
// sorting, merging) and counts the physical resources it consumes —
// sequential page reads, random page reads, tuples processed, index tuples
// processed, operator startups, and spill pages. The environment
// (internal/dbenv) converts those counts into milliseconds via the paper's
// cost identity  cost = cs·ns + cr·nr + ct·nt + ci·ni + co·no, with the
// environment's cache, spill, and parallelism effects applied. This makes
// the simulated latency respond to the "ignored variables" exactly the way
// the paper's §III-A premise describes.
//
// Operators run one at a time over whole inputs, and materialise late
// (Abadi et al., ICDE 2007): an operator's output is a rel, tuples of row
// ids into the heaps and aggregate outputs below it, and values are read
// where they lie. The root's order is late too: a root ORDER BY is charged
// like any sort, but its tuples are ordered, cut to the LIMIT and copied
// out only when a caller asks Result.Rows for the output rows. Labelling,
// which keeps plans and counts, never does.
package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/catalog"
	"repro/internal/dbenv"
	"repro/internal/planner"
	"repro/internal/storage"
)

// maxJoinRows bounds join outputs. Operators hold their whole output (the
// engine does not stream), so a mis-planned join on a pathological key
// distribution could otherwise exhaust memory; queries hitting the bound
// fail cleanly and are skipped by workload collection. A join output tuple
// is a few row ids now, not a row of Values, but the bound stays where it
// was because it decides which queries are labelled. Each join checks the
// bound before it adds one key's matches.
const maxJoinRows = 5_000_000

// Executor runs plans for one dataset inside one environment. It holds no
// mutable state besides the serial-convenience query counter, and DB and
// Env are read-only during execution, so concurrent labeling uses one
// Executor per goroutine over the same database (see internal/parallel).
type Executor struct {
	DB  *storage.Database
	Env *dbenv.Environment

	querySeq int64 // monotone counter feeding Execute's noise stream
}

// New builds an executor.
func New(db *storage.Database, env *dbenv.Environment) *Executor {
	return &Executor{DB: db, Env: env}
}

// Result is one executed query: the simulated latency and the output,
// whose rows Rows copies out on demand. The plan tree passed to Execute is
// annotated in place with per-node actuals (rows, input cardinalities, own
// time).
type Result struct {
	TotalMs float64
	out     rel
	order   rowOrder // the root ORDER BY, which Rows applies; no columns if none
	limit   int      // the root LIMIT, which Len and Rows apply; -1 if none
}

// Len returns the number of output rows, LIMIT applied. It sorts nothing.
func (r *Result) Len() int {
	if n := r.out.len(); r.limit < 0 || n <= r.limit {
		return n
	}
	return r.limit
}

// Rows copies the output rows out of the heaps and aggregate outputs they
// reference: it orders the tuples by the root ORDER BY, keeps the first
// LIMIT, and materialises those. All rows share one slab of Values, and
// each is a three-index slice of it (cap == len), so an append to one row
// reallocates instead of writing into the next. Every call sorts and
// copies afresh and leaves r as it was.
func (r *Result) Rows() []catalog.Row {
	out := r.out
	if len(r.order.cols) > 0 {
		out.ids = sortTuples(out, r.order)
	}
	n, w := r.Len(), len(out.cols)
	cols := make([]column, w)
	for o := range cols {
		cols[o] = out.column(o)
	}
	slab := make([]catalog.Value, n*w)
	rows := make([]catalog.Row, n)
	for t := range rows {
		row := slab[t*w : (t+1)*w : (t+1)*w]
		for o, c := range cols {
			row[o] = *c.at(t)
		}
		rows[t] = row
	}
	return rows
}

// Execute runs the plan and returns its simulated time and its output,
// whose rows Result.Rows materialises on demand. The plan's Actual* fields
// are overwritten. The noise sequence advances with every call, so Execute
// is not safe for concurrent use on one Executor; parallel callers use
// ExecuteSeq with an explicit sequence instead.
func (e *Executor) Execute(root *planner.Node) (*Result, error) {
	e.querySeq++
	return e.ExecuteSeq(root, e.querySeq)
}

// ExecuteSeq runs the plan with an explicit noise sequence number. The
// per-query jitter is derived only from (environment ID, seq), so a caller
// that assigns each query a fixed sequence — e.g. its index in the
// generated workload — gets bit-identical labels no matter how many
// goroutines execute the workload or in what order.
//
// A root Sort (the planner's ORDER BY) is charged here like any other, but
// its tuples stay unordered: no counter reads their order, so the Result
// keeps the sort key and the LIMIT, and Rows applies both when asked.
func (e *Executor) ExecuteSeq(root *planner.Node, seq int64) (*Result, error) {
	res := &Result{limit: root.Limit}
	top := root
	if root.Op == planner.Sort {
		top = root.Children[0]
		res.order = rowOrder{cols: root.SortCols, desc: root.SortDesc}
	}
	out, err := e.exec(top)
	if err != nil {
		return nil, err
	}
	if top != root {
		e.chargeSort(root, out.len())
	}
	res.out = out
	// One multiplicative noise factor per query, applied to every node so
	// per-node and total times stay consistent.
	f := e.Env.Noise(seq)
	root.Walk(func(n *planner.Node) { n.ActualMs *= f })
	res.TotalMs = root.TotalMs()
	return res, nil
}

// rel is an operator's output: n tuples of k row ids, back to back in ids,
// so tuple t is ids[t*k : t*k+k]. Slot s of every tuple indexes the row
// set srcs[s], a heap's rows or an aggregate's group rows, and output
// ordinal o of tuple t is cell cols[o].col of row ids[t*k+cols[o].slot] of
// srcs[cols[o].slot]. A join concatenates its inputs' slots, so k is the
// number of scans and aggregates under the operator. ids holds no
// pointers, so the collector never scans it. Each operator's output is
// owned by its parent alone, which may reorder or drop its ids; the
// source rows are shared and never written.
type rel struct {
	ids  []int32
	srcs [][]catalog.Row
	cols []colRef
}

// colRef locates one output ordinal: a tuple slot and a column of the row
// that slot names.
type colRef struct{ slot, col int }

// oneSlot is the rel of the rows of src that ids name, with src's width
// columns as its ordinals.
func oneSlot(src []catalog.Row, width int, ids []int32) rel {
	cols := make([]colRef, width)
	for c := range cols {
		cols[c] = colRef{col: c}
	}
	return rel{ids: ids, srcs: [][]catalog.Row{src}, cols: cols}
}

// joined is the empty rel whose tuples are a tuple of l followed by a
// tuple of r, with l's ordinals followed by r's.
func joined(l, r rel) rel {
	srcs := slices.Concat(l.srcs, r.srcs)
	cols := slices.Grow(slices.Clone(l.cols), len(r.cols))
	for _, c := range r.cols {
		cols = append(cols, colRef{slot: len(l.srcs) + c.slot, col: c.col})
	}
	return rel{srcs: srcs, cols: cols}
}

func (r rel) len() int { return len(r.ids) / len(r.srcs) }

func (r rel) tuple(t int) []int32 {
	k := len(r.srcs)
	return r.ids[t*k : t*k+k]
}

// pair appends tuple a of left followed by tuple b of right to r, a rel
// built by joined(left, right).
func (r *rel) pair(left rel, a int, right rel, b int) {
	r.ids = append(append(r.ids, left.tuple(a)...), right.tuple(b)...)
}

// column reads one output ordinal of a rel's tuples in place.
type column struct {
	src          []catalog.Row
	ids          []int32
	k, slot, col int
}

func (r rel) column(o int) column {
	c := r.cols[o]
	return column{src: r.srcs[c.slot], ids: r.ids, k: len(r.srcs), slot: c.slot, col: c.col}
}

// at returns the value of tuple t.
func (c column) at(t int) *catalog.Value { return &c.src[c.ids[t*c.k+c.slot]][c.col] }

// counters accumulates one node's physical resource usage.
type counters struct {
	seqPages  int64
	randPages int64
	tuples    int64
	idxTuples int64
	startups  int64
	// relPages is the size of the relation whose pages are being charged;
	// it drives the environment's cache model.
	relPages int64
	parallel bool // scan-type node eligible for parallel speedup
}

// ms converts the counters into simulated milliseconds under e.Env.
func (e *Executor) ms(c counters) float64 {
	rel := c.relPages
	if rel <= 0 {
		rel = 1
	}
	t := float64(c.seqPages)*e.Env.SeqPageCost(rel) +
		float64(c.randPages)*e.Env.RandPageCost(rel) +
		float64(c.tuples)*e.Env.TupleCost() +
		float64(c.idxTuples)*e.Env.IdxTupleCost() +
		float64(c.startups)*e.Env.OperatorCost()
	if c.parallel {
		t /= e.Env.ParallelSpeedup()
	}
	return t
}

// exec runs n's children left to right, then n itself over their outputs.
func (e *Executor) exec(n *planner.Node) (rel, error) {
	var in [2]rel // no operator has more than two inputs
	for i, c := range n.Children {
		r, err := e.exec(c)
		if err != nil {
			return rel{}, err
		}
		in[i] = r
	}
	switch n.Op {
	case planner.SeqScan:
		return e.execSeqScan(n)
	case planner.IndexScan:
		return e.execIndexScan(n)
	case planner.Sort:
		return e.execSort(n, in[0]), nil
	case planner.HashJoin:
		return e.execHashJoin(n, in[0], in[1])
	case planner.MergeJoin:
		return e.execMergeJoin(n, in[0], in[1])
	case planner.NestedLoop:
		return e.execNestedLoop(n, in[0], in[1])
	case planner.Aggregate:
		return e.execAggregate(n, in[0])
	case planner.Materialize:
		return e.execMaterialize(n, in[0]), nil
	}
	return rel{}, fmt.Errorf("engine: unknown operator %v", n.Op)
}

func (e *Executor) execSeqScan(n *planner.Node) (rel, error) {
	h := e.DB.Heap(n.Table)
	if h == nil {
		return rel{}, fmt.Errorf("engine: no heap for table %q", n.Table)
	}
	// Mark the matches in a bitmap, then gather their ids into a slice of
	// exactly their number.
	rows := h.Rows()
	hit := make([]uint64, (len(rows)+63)/64)
	kept := 0
	for id, row := range rows {
		if matchAll(n.Preds, row) {
			hit[id/64] |= 1 << (id % 64)
			kept++
		}
	}
	ids := make([]int32, 0, kept)
	for w, word := range hit {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, int32(w*64+bits.TrailingZeros64(word)))
		}
	}
	c := counters{
		seqPages: h.NumPages(),
		tuples:   int64(len(rows)),
		startups: 1,
		relPages: h.NumPages(),
		parallel: true,
	}
	n.ActualIn1 = float64(len(rows))
	n.ActualRows = int64(len(ids))
	n.ActualMs = e.ms(c)
	return oneSlot(rows, len(h.Table.Columns), ids), nil
}

func (e *Executor) execIndexScan(n *planner.Node) (rel, error) {
	h := e.DB.Heap(n.Table)
	idx := e.DB.Index(n.Index)
	if h == nil || idx == nil {
		return rel{}, fmt.Errorf("engine: missing heap/index for %q/%q", n.Table, n.Index)
	}
	lo, hi, loInc, hiInc := indexBounds(n.IndexPred)
	rows := h.Rows()
	var ids []int32
	var matches int64
	idx.Range(lo, hi, loInc, hiInc, func(id int) bool {
		matches++
		if matchAll(n.Preds, rows[id]) {
			ids = append(ids, int32(id))
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
	n.ActualRows = int64(len(ids))
	n.ActualMs = e.ms(c)
	return oneSlot(rows, len(h.Table.Columns), ids), nil
}

// indexBounds converts the index-serving predicate into a B+tree interval.
func indexBounds(p *planner.CompiledPred) (lo, hi *catalog.Value, loInc, hiInc bool) {
	if p == nil {
		return nil, nil, true, true
	}
	args := p.Src.Args
	switch p.Src.Op {
	case "=":
		return &args[0], &args[0], true, true
	case "<":
		return nil, &args[0], true, false
	case "<=":
		return nil, &args[0], true, true
	case ">":
		return &args[0], nil, false, true
	case ">=":
		return &args[0], nil, true, true
	case "between":
		return &args[0], &args[1], true, true
	}
	return nil, nil, true, true
}

// execSort orders a Sort's input, which a merge join above it reads.
func (e *Executor) execSort(n *planner.Node, in rel) rel {
	in.ids = sortTuples(in, rowOrder{cols: n.SortCols, desc: n.SortDesc})
	e.chargeSort(n, in.len())
	return in
}

// chargeSort sets a Sort node's actuals for sorting tuples of its
// estimated width: comparisons, and spill passes past work memory.
func (e *Executor) chargeSort(n *planner.Node, tuples int) {
	nn := int64(tuples)
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
}

// rowOrder is a sort key: output ordinals with per-column descending flags.
type rowOrder struct {
	cols []int
	desc []bool
}

// sortRun is the length of the runs mergeSortTuples insertion-sorts before
// merging, and the length up to which sortTuples skips key extraction.
const sortRun = 16

// sortTuples returns in's ids with its tuples ordered stably by o. A
// single integer key column over more than sortRun tuples sorts packed
// keys (sortByKey); every other order merge-sorts tuple indices
// (mergeSortTuples). Either way the order is a permutation of tuple
// indices, and the tuples' ids are gathered into a new slice in that
// order.
func sortTuples(in rel, o rowOrder) []int32 {
	n, k := in.len(), len(in.srcs)
	ids := make([]int32, len(in.ids))
	if len(o.cols) == 1 && n > sortRun {
		if words, ok := sortByKey(in.column(o.cols[0]), n, o.desc[0]); ok {
			for p, w := range words {
				copy(ids[p*k:p*k+k], in.tuple(int(uint32(w))))
			}
			return ids
		}
	}
	for p, t := range mergeSortTuples(in, o) {
		copy(ids[p*k:p*k+k], in.tuple(int(t)))
	}
	return ids
}

// mergeSortTuples returns in's tuple indices ordered stably by o, with a
// bottom-up merge sort: runs of sortRun are insertion-sorted in place, then
// merged pairwise back and forth between the index slice and one buffer of
// the same length. A stable sort under a consistent comparator has exactly
// one result, so this orders tuples exactly as sort.SliceStable would.
func mergeSortTuples(in rel, o rowOrder) []int32 {
	keys := make([]column, len(o.cols))
	for i, c := range o.cols {
		keys[i] = in.column(c)
	}
	compare := func(a, b int32) int {
		for i, c := range keys {
			if d := c.at(int(a)).Compare(*c.at(int(b))); d != 0 {
				if o.desc[i] {
					return -d
				}
				return d
			}
		}
		return 0
	}
	n := in.len()
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	for lo := 0; lo < n; lo += sortRun {
		run := idx[lo:min(lo+sortRun, n)]
		for i := 1; i < len(run); i++ {
			x, j := run[i], i
			for ; j > 0 && compare(x, run[j-1]) < 0; j-- {
				run[j] = run[j-1]
			}
			run[j] = x
		}
	}
	if n <= sortRun {
		return idx
	}
	src, dst := idx, make([]int32, n)
	for width := sortRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			a, b, out := src[lo:mid], src[mid:hi], dst[lo:hi]
			i, j, k := 0, 0, 0
			for ; i < len(a) && j < len(b); k++ {
				// Ties take from a, the earlier run: that is the stability.
				if compare(b[j], a[i]) < 0 {
					out[k] = b[j]
					j++
				} else {
					out[k] = a[i]
					i++
				}
			}
			k += copy(out[k:], a[i:])
			copy(out[k:], b[j:])
		}
		src, dst = dst, src
	}
	return src
}

// sortByKey orders the n tuples of col stably by col's value, descending
// when desc, exactly as mergeSortTuples does with a one-column rowOrder,
// and reports false when the column holds a string or its integers span
// 2^32 or more. It sorts one uint64 per tuple: the key's distance from the
// column's minimum (from its maximum under DESC) in the high half, the
// tuple's index in the low. The low halves of the returned words, in
// order, are the sorted permutation.
//
// Value.Compare puts NULL before every integer and orders integers by I;
// DESC negates it. So the NULL tuples form one tie group, which stays in
// input order, first under ASC and last under DESC, and takes no part in
// the sort. The packed words of the other tuples compare as (key, index),
// so no two tie and the unstable in-place slices.Sort lands on the one
// stable order. The distances are taken in uint64, so they cannot
// overflow at either end of int64.
func sortByKey(col column, n int, desc bool) ([]uint64, bool) {
	nulls, lo, hi := 0, int64(math.MaxInt64), int64(math.MinInt64)
	for t := 0; t < n; t++ {
		switch v := col.at(t); {
		case v.Null:
			nulls++
		case v.IsStr:
			return nil, false
		default:
			lo, hi = min(lo, v.I), max(hi, v.I)
		}
	}
	if uint64(n) > math.MaxUint32 || (nulls < n && uint64(hi)-uint64(lo) > math.MaxUint32) {
		return nil, false
	}
	words := make([]uint64, n)
	keyed, nullAt := words[nulls:], words[:nulls]
	if desc {
		keyed, nullAt = words[:n-nulls], words[n-nulls:]
	}
	k, z := 0, 0
	for t := 0; t < n; t++ {
		v := col.at(t)
		switch {
		case v.Null:
			nullAt[z] = uint64(t)
			z++
			continue
		case desc:
			keyed[k] = (uint64(hi) - uint64(v.I)) << 32
		default:
			keyed[k] = (uint64(v.I) - uint64(lo)) << 32
		}
		keyed[k] |= uint64(t)
		k++
	}
	slices.Sort(keyed)
	return words, true
}

// keyIndex groups a join's inner tuples by their join key, NULL keys left
// out: the tuples whose key has group g are at[start[g]:start[g+1]], in
// input order. It costs one map entry per distinct key and two int32s per
// tuple, whatever the number of tuples per key. The map is not presized:
// an inner side often has far fewer distinct keys than tuples.
type keyIndex struct {
	group     map[catalog.Value]int32
	start, at []int32
}

func indexByKey(in rel, o int) keyIndex {
	col, n := in.column(o), in.len()
	ix := keyIndex{group: make(map[catalog.Value]int32)}
	gid := make([]int32, n) // each tuple's group, -1 for a NULL key
	var size []int32
	for t := range gid {
		v := col.at(t)
		if v.Null {
			gid[t] = -1
			continue
		}
		g, ok := ix.group[*v]
		if !ok {
			g = int32(len(size))
			ix.group[*v] = g
			size = append(size, 0)
		}
		gid[t] = g
		size[g]++
	}
	ix.start = make([]int32, len(size)+1)
	for g, s := range size {
		ix.start[g+1] = ix.start[g] + s
	}
	next := size // reused as each group's fill position
	copy(next, ix.start)
	ix.at = make([]int32, ix.start[len(size)])
	for t, g := range gid {
		if g >= 0 {
			ix.at[next[g]] = int32(t)
			next[g]++
		}
	}
	return ix
}

// equiJoin pairs each outer tuple, in order, with the inner tuples that
// share its key, in order: the output of a hash join with inner as the
// build side, and of a nested loop. It finds every outer tuple's group and
// the output's size, bounded by maxJoinRows, before it allocates the output
// once. what names the operator in the maxJoinRows error.
func equiJoin(outer, inner rel, lc, rc int, what string) (rel, error) {
	ix := indexByKey(inner, rc)
	col := outer.column(lc)
	groups := make([]int32, outer.len()) // each outer tuple's group, -1 for none
	total := 0
	for t := range groups {
		groups[t] = -1
		v := col.at(t)
		if v.Null {
			continue
		}
		g, ok := ix.group[*v]
		if !ok {
			continue
		}
		if total += int(ix.start[g+1] - ix.start[g]); total > maxJoinRows {
			return rel{}, fmt.Errorf("engine: %s result exceeds %d rows", what, maxJoinRows)
		}
		groups[t] = g
	}
	out := joined(outer, inner)
	out.ids = make([]int32, 0, total*len(out.srcs))
	for t, g := range groups {
		if g < 0 {
			continue
		}
		for _, b := range ix.at[ix.start[g]:ix.start[g+1]] {
			out.pair(outer, t, inner, int(b))
		}
	}
	return out, nil
}

func (e *Executor) execHashJoin(n *planner.Node, left, right rel) (rel, error) {
	// right is the build side (the planner puts the smaller input there).
	out, err := equiJoin(left, right, n.JoinLeftCol, n.JoinRightCol, "hash join")
	if err != nil {
		return rel{}, err
	}
	nl, nr := int64(left.len()), int64(right.len())
	buildBytes := nr * int64(n.Children[1].EstWidth)
	passes := e.Env.SpillPasses(buildBytes)
	totalBytes := buildBytes + nl*int64(n.Children[0].EstWidth)
	c := counters{
		tuples:   nl + nr + int64(out.len()),
		seqPages: 2 * int64(passes) * (totalBytes/storage.PageSize + 1),
		startups: 1,
		relPages: totalBytes/storage.PageSize + 1,
	}
	n.ActualIn1 = float64(nl)
	n.ActualIn2 = float64(nr)
	n.ActualRows = int64(out.len())
	n.ActualMs = e.ms(c)
	return out, nil
}

func (e *Executor) execMergeJoin(n *planner.Node, left, right rel) (rel, error) {
	lcol, rcol := left.column(n.JoinLeftCol), right.column(n.JoinRightCol)
	nl, nr := left.len(), right.len()
	out := joined(left, right)
	i, j := 0, 0
	for i < nl && j < nr {
		lv, rv := lcol.at(i), rcol.at(j)
		cmp := lv.Compare(*rv)
		switch {
		case lv.Null:
			i++
		case rv.Null:
			j++
		case cmp < 0:
			i++
		case cmp > 0:
			j++
		default:
			// Find the full duplicate group on each side.
			i2 := i
			for i2 < nl && lcol.at(i2).Compare(*rv) == 0 {
				i2++
			}
			j2 := j
			for j2 < nr && rcol.at(j2).Compare(*lv) == 0 {
				j2++
			}
			// Check the bound before adding the group's cross product,
			// which a low-cardinality key makes huge.
			if out.len()+(i2-i)*(j2-j) > maxJoinRows {
				return rel{}, fmt.Errorf("engine: merge join result exceeds %d rows", maxJoinRows)
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					out.pair(left, a, right, b)
				}
			}
			i, j = i2, j2
		}
	}
	c := counters{
		tuples:   int64(nl) + int64(nr) + int64(out.len()),
		startups: 1,
		relPages: 1,
	}
	n.ActualIn1 = float64(nl)
	n.ActualIn2 = float64(nr)
	n.ActualRows = int64(out.len())
	n.ActualMs = e.ms(c)
	return out, nil
}

// execNestedLoop produces nested-loop results and charges quadratic work.
// For equi-joins the matching inner rows are located via a hash table so
// the *computation* stays bounded, while the *charged* tuple count is the
// full n1·n2 scan the operator logically performs — the simulation rule
// documented in docs/ARCHITECTURE.md §1.
func (e *Executor) execNestedLoop(n *planner.Node, outer, inner rel) (rel, error) {
	out, err := equiJoin(outer, inner, n.JoinLeftCol, n.JoinRightCol, "nested loop")
	if err != nil {
		return rel{}, err
	}
	no, ni := int64(outer.len()), int64(inner.len())
	c := counters{
		tuples:   no*ni + no,
		startups: 1,
		relPages: 1,
	}
	n.ActualIn1 = float64(no)
	n.ActualIn2 = float64(ni)
	n.ActualRows = int64(out.len())
	n.ActualMs = e.ms(c)
	return out, nil
}

func (e *Executor) execMaterialize(n *planner.Node, in rel) rel {
	nn := int64(in.len())
	bytes := nn * int64(n.EstWidth)
	passes := e.Env.SpillPasses(bytes)
	c := counters{
		tuples:   nn,
		seqPages: 2 * int64(passes) * (bytes/storage.PageSize + 1),
		startups: 1,
		relPages: bytes/storage.PageSize + 1,
	}
	n.ActualIn1 = float64(nn)
	n.ActualRows = nn
	n.ActualMs = e.ms(c)
	return in
}

// aggState accumulates one group.
type aggState struct {
	key    catalog.Row
	counts []int64
	sums   []int64
	mins   []catalog.Value
	maxs   []catalog.Value
}

func newAggState(aggs int) *aggState {
	st := &aggState{
		counts: make([]int64, aggs),
		sums:   make([]int64, aggs),
		mins:   make([]catalog.Value, aggs),
		maxs:   make([]catalog.Value, aggs),
	}
	for i := range st.mins {
		st.mins[i] = catalog.NullVal()
		st.maxs[i] = catalog.NullVal()
	}
	return st
}

// execAggregate groups its input in order of first appearance and emits
// one row per group — the group columns, then the aggregates — as the
// source of a new one-slot rel.
func (e *Executor) execAggregate(n *planner.Node, in rel) (rel, error) {
	groupCols := make([]column, len(n.GroupCols))
	for i, c := range n.GroupCols {
		groupCols[i] = in.column(c)
	}
	aggCols := make([]column, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Col >= 0 {
			aggCols[i] = in.column(a.Col)
		}
	}
	groups := make(map[string]*aggState)
	order := make([]*aggState, 0, 16)
	var key []byte
	nn := in.len()
	for t := 0; t < nn; t++ {
		key = key[:0]
		for _, c := range groupCols {
			key = appendGroupKey(key, c.at(t))
		}
		st := groups[string(key)]
		if st == nil {
			st = newAggState(len(n.Aggs))
			for _, c := range groupCols {
				st.key = append(st.key, *c.at(t))
			}
			groups[string(key)] = st
			order = append(order, st)
		}
		for ai, a := range n.Aggs {
			if a.Col < 0 { // COUNT(*)
				st.counts[ai]++
				continue
			}
			v := aggCols[ai].at(t)
			if v.Null {
				continue
			}
			st.counts[ai]++
			st.sums[ai] += v.I
			if st.mins[ai].Null || v.Compare(st.mins[ai]) < 0 {
				st.mins[ai] = *v
			}
			if st.maxs[ai].Null || v.Compare(st.maxs[ai]) > 0 {
				st.maxs[ai] = *v
			}
		}
	}
	// Scalar aggregate over empty input still yields one row.
	if len(n.GroupCols) == 0 && len(order) == 0 {
		order = append(order, newAggState(len(n.Aggs)))
	}
	rows := make([]catalog.Row, 0, len(order))
	ids := make([]int32, len(order))
	for gi, st := range order {
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
				return rel{}, fmt.Errorf("engine: unsupported aggregate %q", a.Func)
			}
		}
		rows = append(rows, row)
		ids[gi] = int32(gi)
	}
	c := counters{
		tuples:   int64(nn),
		startups: 1 + int64(len(rows)),
		relPages: 1,
	}
	n.ActualIn1 = float64(nn)
	n.ActualRows = int64(len(rows))
	n.ActualMs = e.ms(c)
	return oneSlot(rows, len(n.GroupCols)+len(n.Aggs), ids), nil
}

// appendGroupKey appends v to a group key: NULL as 0xFF, a string as its
// bytes, an integer as its eight little-endian bytes, each followed by 0.
func appendGroupKey(b []byte, v *catalog.Value) []byte {
	switch {
	case v.Null:
		b = append(b, 0xFF)
	case v.IsStr:
		b = append(b, v.S...)
	default:
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(v.I>>s))
		}
	}
	return append(b, 0)
}

func matchAll(preds []planner.CompiledPred, row catalog.Row) bool {
	for i := range preds {
		if !preds[i].Eval(row[preds[i].Col]) {
			return false
		}
	}
	return true
}

func ceilLog2(n int64) int64 {
	if n < 2 {
		return 1
	}
	return int64(math.Ceil(math.Log2(float64(n))))
}
