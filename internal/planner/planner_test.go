package planner

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/sqlparse"
)

var tpch = datagen.TPCH(1)

func plannerWith(k dbenv.Knobs) *Planner {
	return New(tpch.Schema, tpch.Stats, k)
}

func mustPlan(t *testing.T, pl *Planner, sql string) *Node {
	t.Helper()
	n, err := pl.Plan(sqlparse.MustParse(sql))
	if err != nil {
		t.Fatalf("Plan(%q): %v", sql, err)
	}
	return n
}

func TestPlanSeqScan(t *testing.T) {
	pl := plannerWith(dbenv.DefaultKnobs())
	n := mustPlan(t, pl, "SELECT * FROM lineitem WHERE l_quantity < 40")
	if n.Op != SeqScan {
		t.Fatalf("op = %v, want SeqScan (no index on l_quantity)", n.Op)
	}
	if n.EstRows < 1000 {
		t.Fatalf("EstRows = %v, want large", n.EstRows)
	}
	if len(n.Preds) != 1 {
		t.Fatalf("preds = %d", len(n.Preds))
	}
}

func TestPlanIndexScanSelective(t *testing.T) {
	pl := plannerWith(dbenv.DefaultKnobs())
	n := mustPlan(t, pl, "SELECT * FROM orders WHERE o_orderkey = 42")
	if n.Op != IndexScan || n.Index != "pk_orders" {
		t.Fatalf("op=%v index=%q, want IndexScan pk_orders", n.Op, n.Index)
	}
	if n.IndexPred == nil {
		t.Fatalf("IndexPred not set")
	}
	if len(n.Preds) != 0 {
		t.Fatalf("eq pred should be fully served by index")
	}
}

func TestPlanIndexScanDisabledByKnob(t *testing.T) {
	k := dbenv.DefaultKnobs()
	k.EnableIndexScan = false
	n := mustPlan(t, plannerWith(k), "SELECT * FROM orders WHERE o_orderkey = 42")
	if n.Op != SeqScan {
		t.Fatalf("op = %v, want SeqScan with enable_indexscan=off", n.Op)
	}
}

func TestPlanWideRangePrefersSeqScan(t *testing.T) {
	pl := plannerWith(dbenv.DefaultKnobs())
	n := mustPlan(t, pl, "SELECT * FROM orders WHERE o_orderkey > 5")
	if n.Op != SeqScan {
		t.Fatalf("op = %v, want SeqScan for non-selective range", n.Op)
	}
}

func TestPlanHashJoinDefault(t *testing.T) {
	pl := plannerWith(dbenv.DefaultKnobs())
	n := mustPlan(t, pl, "SELECT * FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey WHERE o_totalprice > 400000")
	if n.Op != HashJoin {
		t.Fatalf("root = %v, want HashJoin\n%s", n.Op, n.Explain())
	}
	if len(n.Cols) != len(tpch.Schema.Table("orders").Columns)+len(tpch.Schema.Table("lineitem").Columns) {
		t.Fatalf("join output cols = %d", len(n.Cols))
	}
}

func TestPlanMergeJoinWhenHashDisabled(t *testing.T) {
	k := dbenv.DefaultKnobs()
	k.EnableHashJoin = false
	k.EnableNestLoop = false
	n := mustPlan(t, plannerWith(k), "SELECT * FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey")
	if n.Op != MergeJoin {
		t.Fatalf("root = %v, want MergeJoin\n%s", n.Op, n.Explain())
	}
	// Children must deliver sorted order (Sort nodes or ordered index scans).
	for _, c := range n.Children {
		if c.Op != Sort && c.Op != IndexScan {
			t.Fatalf("merge child = %v, want Sort or IndexScan", c.Op)
		}
	}
}

func TestPlanNestedLoopForTinyInner(t *testing.T) {
	k := dbenv.DefaultKnobs()
	k.EnableHashJoin = false
	k.EnableMergeJoin = false
	n := mustPlan(t, plannerWith(k), "SELECT * FROM nation JOIN region ON nation.n_regionkey = region.r_regionkey")
	if n.Op != NestedLoop {
		t.Fatalf("root = %v, want NestedLoop\n%s", n.Op, n.Explain())
	}
	if n.Children[1].Op != Materialize {
		t.Fatalf("inner = %v, want Materialize", n.Children[1].Op)
	}
}

func TestPlanNLSoftDisable(t *testing.T) {
	k := dbenv.DefaultKnobs()
	k.EnableHashJoin = false
	k.EnableMergeJoin = false
	// lineitem × orders is far beyond the soft-disable product.
	n := mustPlan(t, plannerWith(k), "SELECT * FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey")
	if n.Op != HashJoin {
		t.Fatalf("root = %v, want HashJoin via soft disable\n%s", n.Op, n.Explain())
	}
}

func TestPlanAggregateAndSort(t *testing.T) {
	pl := plannerWith(dbenv.DefaultKnobs())
	n := mustPlan(t, pl, "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 24 GROUP BY l_returnflag ORDER BY l_returnflag")
	if n.Op != Sort {
		t.Fatalf("root = %v, want Sort\n%s", n.Op, n.Explain())
	}
	agg := n.Children[0]
	if agg.Op != Aggregate || len(agg.Aggs) != 2 || len(agg.GroupCols) != 1 {
		t.Fatalf("agg node = %+v", agg)
	}
	if agg.EstRows > 10 {
		t.Fatalf("group estimate = %v, want ≈3 (l_returnflag NDV)", agg.EstRows)
	}
}

func TestPlanScalarAggregate(t *testing.T) {
	pl := plannerWith(dbenv.DefaultKnobs())
	n := mustPlan(t, pl, "SELECT COUNT(*) FROM lineitem")
	if n.Op != Aggregate || len(n.GroupCols) != 0 || n.EstRows != 1 {
		t.Fatalf("scalar agg plan wrong: %+v", n)
	}
}

func TestPlanThreeWayJoin(t *testing.T) {
	pl := plannerWith(dbenv.DefaultKnobs())
	n := mustPlan(t, pl, "SELECT COUNT(*) FROM customer, orders, lineitem WHERE customer.c_custkey = orders.o_custkey AND orders.o_orderkey = lineitem.l_orderkey AND customer.c_acctbal > 0")
	ops := map[OpType]int{}
	n.Walk(func(x *Node) { ops[x.Op]++ })
	joins := ops[HashJoin] + ops[MergeJoin] + ops[NestedLoop]
	if joins != 2 {
		t.Fatalf("join count = %d, want 2\n%s", joins, n.Explain())
	}
	if ops[Aggregate] != 1 {
		t.Fatalf("aggregate missing")
	}
}

func TestPlanLimitPropagates(t *testing.T) {
	pl := plannerWith(dbenv.DefaultKnobs())
	n := mustPlan(t, pl, "SELECT * FROM orders WHERE o_totalprice > 0 ORDER BY o_totalprice DESC LIMIT 7")
	if n.Limit != 7 {
		t.Fatalf("Limit = %d", n.Limit)
	}
	if !n.SortDesc[0] {
		t.Fatalf("DESC lost")
	}
}

func TestPlanErrors(t *testing.T) {
	pl := plannerWith(dbenv.DefaultKnobs())
	bad := []string{
		"SELECT * FROM orders, lineitem",                                         // no join condition
		"SELECT * FROM orders o1, orders o2 WHERE o1.o_orderkey = o2.o_orderkey", // self join
		"SELECT * FROM ghost",
	}
	for _, sql := range bad {
		if _, err := pl.Plan(sqlparse.MustParse(sql)); err == nil {
			t.Errorf("Plan(%q) should fail", sql)
		}
	}
}

func TestExplainRendering(t *testing.T) {
	pl := plannerWith(dbenv.DefaultKnobs())
	n := mustPlan(t, pl, "SELECT * FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey")
	out := n.Explain()
	if !strings.Contains(out, "Hash Join") || !strings.Contains(out, "orders") {
		t.Fatalf("explain output:\n%s", out)
	}
}

func TestCompiledPredOps(t *testing.T) {
	mk := func(op sqlparse.CmpOp, args ...catalog.Value) func(catalog.Value) bool {
		p := sqlparse.Predicate{Col: sqlparse.ColRef{}, Op: op, Args: args}
		return CompilePred(0, p).Eval
	}
	if !mk(sqlparse.OpEq, catalog.IntVal(5))(catalog.IntVal(5)) {
		t.Fatal("eq")
	}
	if mk(sqlparse.OpEq, catalog.IntVal(5))(catalog.NullVal()) {
		t.Fatal("null must not match")
	}
	if !mk(sqlparse.OpBetween, catalog.IntVal(1), catalog.IntVal(10))(catalog.IntVal(10)) {
		t.Fatal("between inclusive")
	}
	if !mk(sqlparse.OpIn, catalog.IntVal(1), catalog.IntVal(3))(catalog.IntVal(3)) {
		t.Fatal("in")
	}
	if !mk(sqlparse.OpNe, catalog.IntVal(1))(catalog.IntVal(2)) {
		t.Fatal("ne")
	}
	like := mk(sqlparse.OpLike, catalog.StrVal("ab%"))
	if !like(catalog.StrVal("abc")) || like(catalog.StrVal("xabc")) {
		t.Fatal("prefix like")
	}
	contains := mk(sqlparse.OpLike, catalog.StrVal("%bc%"))
	if !contains(catalog.StrVal("abcd")) {
		t.Fatal("contains like")
	}
	suffix := mk(sqlparse.OpLike, catalog.StrVal("%cd"))
	if !suffix(catalog.StrVal("abcd")) || suffix(catalog.StrVal("abce")) {
		t.Fatal("suffix like")
	}
	mid := mk(sqlparse.OpLike, catalog.StrVal("a%d"))
	if !mid(catalog.StrVal("abcd")) || mid(catalog.StrVal("abce")) {
		t.Fatal("interior like")
	}
}

func TestOpTypeStrings(t *testing.T) {
	for _, op := range AllOpTypes() {
		if strings.HasPrefix(op.String(), "OpType(") {
			t.Fatalf("missing String case for %d", int(op))
		}
	}
}

// TestJoinSchemaFollowsChildren holds every join, under every join knob
// and both hash-join orientations, to one rule: its output schema is its
// left input's columns followed by its right input's, and the join
// ordinals index those inputs — the swap that puts the smaller side on
// the build side must carry the schema with it. Scans describe their
// output with the catalog's shared per-table list, the same backing array
// in every plan.
func TestJoinSchemaFollowsChildren(t *testing.T) {
	knobSets := []dbenv.Knobs{dbenv.DefaultKnobs()}
	mergeOnly := dbenv.DefaultKnobs()
	mergeOnly.EnableHashJoin, mergeOnly.EnableNestLoop = false, false
	nlOnly := dbenv.DefaultKnobs()
	nlOnly.EnableHashJoin, nlOnly.EnableMergeJoin = false, false
	knobSets = append(knobSets, mergeOnly, nlOnly)
	queries := []string{
		// The filtered side is the smaller one: written first, then second.
		"SELECT * FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey WHERE o_totalprice > 400000",
		"SELECT * FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey WHERE o_totalprice > 400000",
		"SELECT COUNT(*) FROM customer, orders, lineitem WHERE customer.c_custkey = orders.o_custkey AND orders.o_orderkey = lineitem.l_orderkey AND customer.c_acctbal > 0",
		"SELECT * FROM region JOIN nation ON region.r_regionkey = nation.n_regionkey",
	}
	joins, scans := 0, 0
	for _, k := range knobSets {
		for _, sql := range queries {
			mustPlan(t, plannerWith(k), sql).Walk(func(n *Node) {
				switch n.Op {
				case SeqScan, IndexScan:
					scans++
					shared := tpch.Schema.Table(n.Table).ColInfos()
					if len(n.Cols) != len(shared) || &n.Cols[0] != &shared[0] {
						t.Fatalf("scan of %s does not carry the catalog's shared column list", n.Table)
					}
				case HashJoin, MergeJoin, NestedLoop:
					joins++
					l, r := n.Children[0], n.Children[1]
					want := append(append([]ColInfo{}, l.Cols...), r.Cols...)
					if len(n.Cols) != len(want) {
						t.Fatalf("%v: %d output columns, children have %d\n%s", n.Op, len(n.Cols), len(want), n.Explain())
					}
					for i := range want {
						if n.Cols[i] != want[i] {
							t.Fatalf("%v: output column %d = %+v, want %+v\n%s", n.Op, i, n.Cols[i], want[i], n.Explain())
						}
					}
					if n.JoinLeftCol >= len(l.Cols) || n.JoinRightCol >= len(r.Cols) {
						t.Fatalf("%v: join ordinals %d/%d out of its inputs' range", n.Op, n.JoinLeftCol, n.JoinRightCol)
					}
					if n.Op == HashJoin && l.EstRows < r.EstRows {
						t.Fatalf("hash join builds on the larger side (%v < %v)", l.EstRows, r.EstRows)
					}
				}
			})
		}
	}
	if joins < 12 || scans < 24 {
		t.Fatalf("corpus too thin: %d joins, %d scans", joins, scans)
	}
}
