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
				if i := firstRowDiff(gotRes.Rows, wantRes.Rows); i >= 0 {
					t.Fatalf("%s: rows differ at %d (%d rows, reference %d)", where, i, len(gotRes.Rows), len(wantRes.Rows))
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
