package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dbenv"
	"repro/internal/planner"
	"repro/internal/sqlparse"
)

// oracleSort is the executor's sort before sortTuples: sort.SliceStable
// over a copy, with the comparator written as a less function.
func oracleSort(rows []catalog.Row, o rowOrder) []catalog.Row {
	out := append([]catalog.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for k, c := range o.cols {
			cmp := out[i][c].Compare(out[j][c])
			if cmp == 0 {
				continue
			}
			if o.desc[k] {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return out
}

// rowsRel is rows, each width wide, as an operator's one-slot output,
// every row in order.
func rowsRel(rows []catalog.Row, width int) rel {
	ids := make([]int32, len(rows))
	for i := range ids {
		ids[i] = int32(i)
	}
	return oneSlot(rows, width, ids)
}

// requireSameOrder checks that sortTuples and the oracle put rows in the
// same order. Each row's last cell is its unique id, not part of any key.
func requireSameOrder(t *testing.T, rows []catalog.Row, o rowOrder) {
	t.Helper()
	want := oracleSort(rows, o)
	width := 0 // the key columns are all the sort reads, even of no rows
	for _, c := range o.cols {
		width = max(width, c+1)
	}
	ids := sortTuples(rowsRel(rows, width), o)
	if len(ids) != len(want) {
		t.Fatalf("%d rows sorted to %d", len(want), len(ids))
	}
	for i := range want {
		got := rows[ids[i]]
		if id := len(want[i]) - 1; got[id] != want[i][id] {
			t.Fatalf("n=%d key %v: position %d holds row %v, sort.SliceStable put row %v there",
				len(rows), o, i, got[id].I, want[i][id].I)
		}
	}
}

func TestStableSortRows(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	words := []string{"", "a", "ab", "b", "ba", "zz"}
	val := func(kind int) catalog.Value {
		if rng.Intn(8) == 0 {
			return catalog.NullVal()
		}
		switch kind {
		case 0: // heavy ties
			return catalog.IntVal(rng.Int63n(3))
		case 1:
			return catalog.StrVal(words[rng.Intn(len(words))])
		default:
			return catalog.IntVal(rng.Int63n(1000) - 500)
		}
	}
	orders := []rowOrder{
		{cols: []int{0}, desc: []bool{false}},
		{cols: []int{0}, desc: []bool{true}},
		{cols: []int{1}, desc: []bool{false}},
		{cols: []int{2}, desc: []bool{true}},
		{cols: []int{0, 1}, desc: []bool{false, true}},
		{cols: []int{1, 0, 2}, desc: []bool{true, false, true}},
		{cols: []int{2, 1}, desc: []bool{false, false}},
	}
	for _, n := range []int{0, 1, 15, 16, 17, 31, 33, 1000, 4097} {
		rows := make([]catalog.Row, n)
		for i := range rows {
			rows[i] = catalog.Row{val(0), val(1), val(2), catalog.IntVal(int64(i))}
		}
		for _, o := range orders {
			requireSameOrder(t, rows, o)
		}
		// Already sorted and reversed inputs take the merge's copy-out
		// paths on every pass.
		asc := oracleSort(rows, orders[6])
		requireSameOrder(t, asc, orders[6])
		desc := oracleSort(rows, rowOrder{cols: []int{2, 1}, desc: []bool{true, true}})
		requireSameOrder(t, desc, orders[6])
	}
	// One integer key column over more than sortRun tuples takes sortByKey
	// when its integers span less than 2^32: at both ends of int64, where
	// the distances must not overflow, and around 0, each beside NULLs,
	// which stay first under ASC and last under DESC. Wider columns and
	// span 2^32 exactly fall back to the merge sort.
	for _, tc := range []struct {
		name  string
		ints  []int64
		keyed bool
	}{
		{"min end", []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + math.MaxUint32}, true},
		{"max end", []int64{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - math.MaxUint32}, true},
		{"zero", []int64{0, -1, 1}, true},
		{"all NULL", nil, true},
		{"both ends", []int64{math.MinInt64, 0, math.MaxInt64}, false},
		{"span 2^32", []int64{0, 1 << 32}, false},
	} {
		vals := []catalog.Value{catalog.NullVal()}
		for _, v := range tc.ints {
			vals = append(vals, catalog.IntVal(v))
		}
		for _, n := range []int{17, 1000, 4097} {
			rows := make([]catalog.Row, n)
			for i := range rows {
				rows[i] = catalog.Row{vals[rng.Intn(len(vals))], catalog.IntVal(int64(i))}
			}
			for _, desc := range []bool{false, true} {
				o := rowOrder{cols: []int{0}, desc: []bool{desc}}
				requireSameOrder(t, rows, o)
				if _, keyed := sortByKey(rowsRel(rows, 2).column(0), n, desc); keyed != tc.keyed {
					t.Fatalf("%s, n=%d, desc=%v: sortByKey took the rows = %v, want %v", tc.name, n, desc, keyed, tc.keyed)
				}
			}
		}
	}
}

// TestSortBytesPerRow holds a single-column sort to the keyed path's
// memory: 4 096 tuples on one integer column allocate one 8-byte packed
// word and one 4-byte reordered id per tuple, under the 24 bytes per row
// that a merge buffer of row headers costs.
func TestSortBytesPerRow(t *testing.T) {
	const n, runs, maxBytesPerRow = 4096, 8, 24
	rng := rand.New(rand.NewSource(29))
	inputs := make([]rel, runs)
	for r := range inputs {
		rows := make([]catalog.Row, n)
		for i := range rows {
			rows[i] = catalog.Row{catalog.IntVal(rng.Int63n(1000)), catalog.IntVal(int64(i))}
		}
		inputs[r] = rowsRel(rows, 2)
	}
	o := rowOrder{cols: []int{0}, desc: []bool{true}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, in := range inputs {
		sortTuples(in, o)
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / (runs * n)
	t.Logf("%.2f bytes allocated per sorted row", perRow)
	if perRow >= maxBytesPerRow {
		t.Fatalf("%.2f bytes allocated per sorted row, want under %d", perRow, maxBytesPerRow)
	}
}

// FuzzStableSortRows decodes the input into a sort key and rows of small
// ints, short strings and NULLs (each column holds one type, as a table
// column does), and requires sortTuples to produce sort.SliceStable's
// permutation.
func FuzzStableSortRows(f *testing.F) {
	f.Add([]byte{0x02, 0x00, 0x05, 1, 2, 3, 3, 2, 1, 0, 0, 0, 1, 2, 3})
	f.Add([]byte("a sort key and a few rows of it, ties included"))
	f.Add(make([]byte, 200))
	// One key column (data[0]%3 == 0) and more than 16 rows reach
	// sortByKey: column 2 descending with NULLs, column 0 ascending, and
	// column 1, which holds strings and falls back to the merge sort.
	keyed := func(col byte) []byte {
		b := []byte{0x03, col}
		for i := 0; i < 60; i++ {
			b = append(b, byte(i*37), byte(i*11), byte(i*59)|byte(i%4)<<3)
		}
		return b
	}
	f.Add(keyed(0x82))
	f.Add(keyed(0x00))
	f.Add(keyed(0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nkeys := 1 + int(data[0])%3
		o := rowOrder{}
		for _, b := range data[1 : 1+nkeys] {
			o.cols = append(o.cols, int(b)%3)
			o.desc = append(o.desc, b&0x80 != 0)
		}
		data = data[1+nkeys:]
		rows := make([]catalog.Row, 0, len(data)/3)
		for i := 0; i+3 <= len(data) && len(rows) < 4096; i += 3 {
			row := catalog.Row{
				catalog.IntVal(int64(data[i] % 5)),
				catalog.StrVal(strings.Repeat("ab", int(data[i+1]%3)) + string('a'+rune(data[i+1]>>6))),
				catalog.IntVal(int64(int8(data[i+2]))),
				catalog.IntVal(int64(len(rows))),
			}
			for c := 0; c < 3; c++ {
				if data[i+c]&0x38 == 0x38 {
					row[c] = catalog.NullVal()
				}
			}
			rows = append(rows, row)
		}
		requireSameOrder(t, rows, o)
	})
}

// joinEnv narrows the join permissions to the one join method named.
func joinEnv(method planner.OpType) *dbenv.Environment {
	env := quietEnv()
	k := &env.Knobs
	k.EnableHashJoin = method == planner.HashJoin
	k.EnableMergeJoin = method == planner.MergeJoin
	k.EnableNestLoop = method == planner.NestedLoop
	return env
}

// TestJoinRowsDoNotAlias checks the slab rule: every join output row is a
// slice whose capacity is its length, so appending to one row can never
// write into the row carved next to it.
func TestJoinRowsDoNotAlias(t *testing.T) {
	const sql = "SELECT * FROM customer JOIN orders ON customer.c_custkey = orders.o_custkey WHERE c_acctbal > 9000"
	for _, method := range []planner.OpType{planner.HashJoin, planner.MergeJoin, planner.NestedLoop} {
		node, res := runSQL(t, tpch, joinEnv(method), sql)
		if node.Op != method {
			t.Fatalf("%v: planned %v at the root", method, node.Op)
		}
		rows := res.Rows()
		if len(rows) < 1000 {
			t.Fatalf("%v: only %d rows, too few to span several slabs", method, len(rows))
		}
		for i, r := range rows {
			if cap(r) != len(r) {
				t.Fatalf("%v: row %d has len %d, cap %d", method, i, len(r), cap(r))
			}
		}
		for i := 0; i+1 < len(rows); i++ {
			next := append(catalog.Row(nil), rows[i+1]...)
			grown := append(rows[i], catalog.IntVal(-1))
			for c := range next {
				if rows[i+1][c] != next[c] {
					t.Fatalf("%v: appending to row %d changed row %d", method, i, i+1)
				}
			}
			if &grown[0] == &rows[i][0] {
				t.Fatalf("%v: append to row %d did not reallocate", method, i)
			}
		}
	}
}

// TestJoinAllocsPerOutputRow holds join output to a constant number of
// allocations: the orders ⋈ lineitem hash join of
// BenchmarkHashJoinOrdersLineitem, run whole, allocates far fewer objects
// than the join produces rows. With one heap object per output row it read
// 1.26 allocations per output row (24 720 for 19 658 rows); with rows
// carved from slabs, 0.27, nearly all of them the build side's per-key
// bucket slices. With row-id tuples, a flat key index and an output sized
// before it is built, it reads 0.0046 (91 allocations), 0.0047 under
// -race. The ceiling is the plain reading plus 15%.
func TestJoinAllocsPerOutputRow(t *testing.T) {
	const maxAllocsPerRow = 0.0053
	env := quietEnv()
	node, err := planner.New(tpch.Schema, tpch.Stats, env.Knobs).Plan(sqlparse.MustParse(
		"SELECT COUNT(*) FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey WHERE o_totalprice > 300000"))
	if err != nil {
		t.Fatal(err)
	}
	var join *planner.Node
	node.Walk(func(n *planner.Node) {
		if n.Op == planner.HashJoin {
			join = n
		}
	})
	if join == nil {
		t.Fatalf("no hash join in the plan:\n%v", node)
	}
	ex := New(tpch.DB, env)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ex.Execute(node); err != nil {
			t.Fatal(err)
		}
	})
	perRow := allocs / float64(join.ActualRows)
	t.Logf("%.0f allocations for %d join rows: %.4f per row", allocs, join.ActualRows, perRow)
	if perRow > maxAllocsPerRow {
		t.Fatalf("%.4f allocations per join output row, ceiling %.4f", perRow, maxAllocsPerRow)
	}
}

// TestMergeJoinBoundBeforeMaterialising joins lineitem to itself on
// l_returnflag, three values over 60 000 rows: the first duplicate group's
// cross product alone is 400 million rows. The join must fail on the
// maxJoinRows bound before it builds any of them.
func TestMergeJoinBoundBeforeMaterialising(t *testing.T) {
	li := tpch.Schema.Table("lineitem")
	flag := li.ColIndex("l_returnflag")
	sorted := func() *planner.Node {
		scan := &planner.Node{Op: planner.SeqScan, Table: "lineitem", Limit: -1, EstWidth: li.RowWidth()}
		return &planner.Node{Op: planner.Sort, Children: []*planner.Node{scan},
			SortCols: []int{flag}, SortDesc: []bool{false}, Limit: -1, EstWidth: li.RowWidth()}
	}
	join := &planner.Node{Op: planner.MergeJoin, Children: []*planner.Node{sorted(), sorted()},
		JoinLeftCol: flag, JoinRightCol: flag, Limit: -1, EstWidth: 2 * li.RowWidth()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := New(tpch.DB, quietEnv()).Execute(join)
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("merge join result exceeds %d rows", maxJoinRows); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<20 {
		t.Fatalf("failing the join allocated %d MiB, want under 64", d>>20)
	}
}
