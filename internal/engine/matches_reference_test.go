package engine_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// TestMatchesReference runs every template of every benchmark, with
// several literal draws each, through the executor and through the
// reference operators in reference_test.go (sort.SliceStable, one heap
// object per join row), under three sampled environments each taken as
// sampled and with its join permissions narrowed to hash only, merge only
// and nested loop only. Every query must return the same rows in the same
// order, the same error, the same total, and on every plan node the same
// actual rows, input cardinalities and time, bit for bit.
func TestMatchesReference(t *testing.T) {
	draws := 2
	if testing.Short() {
		draws = 1
	}
	for _, bench := range datagen.BenchmarkNames() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			matchReference(t, bench, draws)
		})
	}
}

// TestManyToManyJoinsMatchReference runs joins whose keys repeat on both
// sides, which no workload template returns unaggregated, through the
// executor and the reference under every join method: the order of a
// duplicate group's cross product must be the reference's too.
func TestManyToManyJoinsMatchReference(t *testing.T) {
	ds, err := datagen.Build("tpch", 1)
	if err != nil {
		t.Fatal(err)
	}
	sqls := []string{
		"SELECT * FROM lineitem JOIN partsupp ON lineitem.l_partkey = partsupp.ps_partkey WHERE l_quantity < 3",
		"SELECT * FROM customer JOIN supplier ON customer.c_nationkey = supplier.s_nationkey WHERE c_acctbal > 9500",
	}
	for _, j := range joinSets[1:] {
		env := *dbenv.Default()
		j.set(&env.Knobs)
		pl := planner.New(ds.Schema, ds.Stats, env.Knobs)
		ex := engine.New(ds.DB, &env)
		for qi, sql := range sqls {
			where := fmt.Sprintf("%s query %d %q", j.name, qi, sql)
			got, want, err := planTwice(pl, sql)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			gotRes, err := ex.ExecuteSeq(got, int64(qi+1))
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			wantRes, err := ex.RefExecuteSeq(want, int64(qi+1))
			if err != nil {
				t.Fatalf("%s: reference: %v", where, err)
			}
			if i := firstRowDiff(gotRes.Rows(), wantRes.Rows); i >= 0 {
				t.Fatalf("%s: rows differ at %d (%d rows, reference %d)", where, i, gotRes.Len(), len(wantRes.Rows))
			}
			compareActuals(t, where, got, want)
			t.Logf("%s: %v at the root, %d rows", where, got.Op, gotRes.Len())
		}
	}
}

// TestRootSortMatchesReference runs root ORDER BY queries — ascending and
// descending, integer and string keys, over a scan, an aggregate and a
// join — with no LIMIT and with a LIMIT of 0, below the row count and above
// it, through ExecuteSeq, which charges a root Sort but leaves the order to
// Result.Rows, and through the reference, which sorts. Len must be
// min(n, LIMIT); Rows must return the reference's rows in its order, and
// again on a second call; the total and every node's actuals must match
// bit for bit.
func TestRootSortMatchesReference(t *testing.T) {
	ds, err := datagen.Build("tpch", 1)
	if err != nil {
		t.Fatal(err)
	}
	env := *dbenv.Default()
	pl := planner.New(ds.Schema, ds.Stats, env.Knobs)
	ex := engine.New(ds.DB, &env)
	sqls := []string{
		"SELECT * FROM orders WHERE o_totalprice > 400000 ORDER BY o_totalprice",
		"SELECT * FROM orders WHERE o_totalprice > 400000 ORDER BY o_totalprice DESC",
		"SELECT * FROM lineitem WHERE lineitem.l_returnflag <> 'N' ORDER BY lineitem.l_returnflag",
		"SELECT * FROM lineitem WHERE l_quantity < 10 ORDER BY l_returnflag DESC, l_quantity",
		"SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag DESC",
		"SELECT * FROM customer JOIN supplier ON customer.c_nationkey = supplier.s_nationkey WHERE c_acctbal > 9500 ORDER BY s_name",
	}
	for qi, base := range sqls {
		for _, limit := range []int{-1, 0, 2, 10_000_000} {
			sql := base
			if limit >= 0 {
				sql = fmt.Sprintf("%s LIMIT %d", base, limit)
			}
			where := fmt.Sprintf("query %d %q", qi, sql)
			got, want, err := planTwice(pl, sql)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if got.Op != planner.Sort {
				t.Fatalf("%s: root is %v, want Sort", where, got.Op)
			}
			seq := int64(qi + 1)
			gotRes, err := ex.ExecuteSeq(got, seq)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			wantRes, err := ex.RefExecuteSeq(want, seq)
			if err != nil {
				t.Fatalf("%s: reference: %v", where, err)
			}
			n := int(got.ActualRows)
			if limit == 2 && n <= limit {
				t.Fatalf("%s: %d rows, want more than the LIMIT", where, n)
			}
			wantLen := n
			if limit >= 0 {
				wantLen = min(n, limit)
			}
			if gotRes.Len() != wantLen || len(wantRes.Rows) != wantLen {
				t.Fatalf("%s: Len %d, reference %d rows, want min(%d, LIMIT)", where, gotRes.Len(), len(wantRes.Rows), n)
			}
			for call := 1; call <= 2; call++ {
				if i := firstRowDiff(gotRes.Rows(), wantRes.Rows); i >= 0 {
					t.Fatalf("%s: Rows call %d differs at %d", where, call, i)
				}
			}
			if math.Float64bits(gotRes.TotalMs) != math.Float64bits(wantRes.TotalMs) {
				t.Fatalf("%s: TotalMs %v, reference %v", where, gotRes.TotalMs, wantRes.TotalMs)
			}
			compareActuals(t, where, got, want)
		}
	}
}

// joinSets narrow a sampled environment's join permissions: taken as
// sampled, then hash only, merge only and nested loop only.
var joinSets = []struct {
	name string
	set  func(*dbenv.Knobs)
}{
	{"sampled", func(*dbenv.Knobs) {}},
	{"hash", func(k *dbenv.Knobs) { k.EnableHashJoin, k.EnableMergeJoin, k.EnableNestLoop = true, false, false }},
	{"merge", func(k *dbenv.Knobs) { k.EnableHashJoin, k.EnableMergeJoin, k.EnableNestLoop = false, true, false }},
	{"nestloop", func(k *dbenv.Knobs) { k.EnableHashJoin, k.EnableMergeJoin, k.EnableNestLoop = false, false, true }},
}

func matchReference(t *testing.T, bench string, draws int) {
	ds, err := datagen.Build(bench, 1)
	if err != nil {
		t.Fatal(err)
	}
	templates := workload.TemplatesFor(bench)
	sqls, err := workload.NewGenerator(ds, 24).Generate(templates, draws*len(templates))
	if err != nil {
		t.Fatal(err)
	}
	ops, failed := map[planner.OpType]int{}, 0
	for _, sampled := range dbenv.SampleSet(3, 24) {
		for _, j := range joinSets {
			env := *sampled
			j.set(&env.Knobs)
			pl := planner.New(ds.Schema, ds.Stats, env.Knobs)
			ex := engine.New(ds.DB, &env)
			for qi, sql := range sqls {
				where := fmt.Sprintf("%s env %d %s query %d %q", bench, env.ID, j.name, qi, sql)
				got, want, err := planTwice(pl, sql)
				if err != nil {
					continue // both sides would skip a query the planner rejects
				}
				seq := int64(qi + 1)
				gotRes, gotErr := ex.ExecuteSeq(got, seq)
				wantRes, wantErr := ex.RefExecuteSeq(want, seq)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: error %v, reference %v", where, gotErr, wantErr)
				}
				if wantErr != nil {
					failed++
					continue
				}
				if math.Float64bits(gotRes.TotalMs) != math.Float64bits(wantRes.TotalMs) {
					t.Fatalf("%s: TotalMs %v, reference %v", where, gotRes.TotalMs, wantRes.TotalMs)
				}
				if i := firstRowDiff(gotRes.Rows(), wantRes.Rows); i >= 0 {
					t.Fatalf("%s: rows differ at %d (%d rows, reference %d)", where, i, gotRes.Len(), len(wantRes.Rows))
				}
				compareActuals(t, where, got, want)
				got.Walk(func(n *planner.Node) { ops[n.Op]++ })
			}
		}
	}
	t.Logf("%d queries × %d configurations, %d failed alike, operators executed %v", len(sqls), 3*len(joinSets), failed, ops)
}

// planTwice plans sql twice, giving each executor a tree of its own to
// annotate.
func planTwice(pl *planner.Planner, sql string) (a, b *planner.Node, err error) {
	if a, err = pl.Plan(sqlparse.MustParse(sql)); err != nil {
		return nil, nil, err
	}
	b, err = pl.Plan(sqlparse.MustParse(sql))
	return a, b, err
}

// firstRowDiff returns the index of the first row that differs between
// got and want, or -1 when both hold the same rows in the same order.
func firstRowDiff(got, want []catalog.Row) int {
	for i := range got {
		if i >= len(want) || len(got[i]) != len(want[i]) {
			return i
		}
		for c := range got[i] {
			if got[i][c] != want[i][c] {
				return i
			}
		}
	}
	if len(got) != len(want) {
		return len(got)
	}
	return -1
}

func compareActuals(t *testing.T, where string, got, want *planner.Node) {
	t.Helper()
	if got.Op != want.Op || len(got.Children) != len(want.Children) {
		t.Fatalf("%s: plan shapes differ: %v vs %v", where, got.Op, want.Op)
	}
	if got.ActualRows != want.ActualRows ||
		math.Float64bits(got.ActualIn1) != math.Float64bits(want.ActualIn1) ||
		math.Float64bits(got.ActualIn2) != math.Float64bits(want.ActualIn2) ||
		math.Float64bits(got.ActualMs) != math.Float64bits(want.ActualMs) {
		t.Fatalf("%s: %v actuals rows=%d in=%v/%v ms=%v, reference rows=%d in=%v/%v ms=%v", where, got.Op,
			got.ActualRows, got.ActualIn1, got.ActualIn2, got.ActualMs,
			want.ActualRows, want.ActualIn1, want.ActualIn2, want.ActualMs)
	}
	for i := range got.Children {
		compareActuals(t, where, got.Children[i], want.Children[i])
	}
}
