package engine

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/planner"
	"repro/internal/sqlparse"
)

var (
	tpch = datagen.TPCH(1)
	sysb = datagen.Sysbench(1)
)

func runSQL(t *testing.T, ds *datagen.Dataset, env *dbenv.Environment, sql string) (*planner.Node, *Result) {
	t.Helper()
	pl := planner.New(ds.Schema, ds.Stats, env.Knobs)
	n, err := pl.Plan(sqlparse.MustParse(sql))
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	ex := New(ds.DB, env)
	res, err := ex.Execute(n)
	if err != nil {
		t.Fatalf("execute %q: %v", sql, err)
	}
	return n, res
}

func quietEnv() *dbenv.Environment {
	e := dbenv.Default()
	e.NoiseStd = 0
	return e
}

// bruteCount evaluates a single-table conjunctive predicate by brute force.
func bruteCount(ds *datagen.Dataset, table string, pred func(catalog.Row) bool) int {
	h := ds.DB.Heap(table)
	n := 0
	for i := 0; i < h.NumRows(); i++ {
		if pred(h.Get(i)) {
			n++
		}
	}
	return n
}

func TestSeqScanCorrectness(t *testing.T) {
	env := quietEnv()
	node, res := runSQL(t, tpch, env, "SELECT * FROM lineitem WHERE l_quantity < 10")
	qi := tpch.Schema.Table("lineitem").ColIndex("l_quantity")
	want := bruteCount(tpch, "lineitem", func(r catalog.Row) bool { return r[qi].I < 10 })
	if res.Len() != want {
		t.Fatalf("rows = %d, want %d", res.Len(), want)
	}
	if node.Op != planner.SeqScan {
		t.Fatalf("op = %v", node.Op)
	}
	if node.ActualRows != int64(want) || node.ActualMs <= 0 {
		t.Fatalf("actuals: rows=%d ms=%v", node.ActualRows, node.ActualMs)
	}
}

func TestIndexScanMatchesSeqScan(t *testing.T) {
	env := quietEnv()
	_, idxRes := runSQL(t, tpch, env, "SELECT * FROM orders WHERE o_orderkey = 442")
	noIdx := quietEnv()
	noIdx.Knobs.EnableIndexScan = false
	_, seqRes := runSQL(t, tpch, noIdx, "SELECT * FROM orders WHERE o_orderkey = 442")
	if idxRes.Len() != seqRes.Len() || idxRes.Len() != 1 {
		t.Fatalf("index %d vs seq %d rows", idxRes.Len(), seqRes.Len())
	}
	if row := idxRes.Rows()[0]; row[0].I != 442 {
		t.Fatalf("wrong row: %v", row)
	}
}

func TestIndexScanRange(t *testing.T) {
	env := quietEnv()
	node, res := runSQL(t, tpch, env, "SELECT * FROM orders WHERE o_orderdate BETWEEN 8100 AND 8120")
	di := tpch.Schema.Table("orders").ColIndex("o_orderdate")
	want := bruteCount(tpch, "orders", func(r catalog.Row) bool { return r[di].I >= 8100 && r[di].I <= 8120 })
	if res.Len() != want {
		t.Fatalf("rows = %d, want %d", res.Len(), want)
	}
	if node.Op != planner.IndexScan {
		t.Fatalf("expected IndexScan, got %v", node.Op)
	}
}

func TestIndexScanWithResidualFilter(t *testing.T) {
	env := quietEnv()
	_, res := runSQL(t, tpch, env, "SELECT * FROM orders WHERE o_orderkey < 100 AND o_totalprice > 200000")
	oi := tpch.Schema.Table("orders").ColIndex("o_orderkey")
	pi := tpch.Schema.Table("orders").ColIndex("o_totalprice")
	want := bruteCount(tpch, "orders", func(r catalog.Row) bool {
		return r[oi].I < 100 && r[pi].I > 200000*100
	})
	if res.Len() != want {
		t.Fatalf("rows = %d, want %d", res.Len(), want)
	}
}

func TestHashJoinCorrectness(t *testing.T) {
	env := quietEnv()
	node, res := runSQL(t, tpch, env,
		"SELECT * FROM nation JOIN region ON nation.n_regionkey = region.r_regionkey")
	if res.Len() != 25 {
		t.Fatalf("join rows = %d, want 25 (every nation matches)", res.Len())
	}
	// Verify the join key actually matches on every output row.
	lc := node.ColIndex("nation", "n_regionkey")
	rc := node.ColIndex("region", "r_regionkey")
	for _, r := range res.Rows() {
		if r[lc].I != r[rc].I {
			t.Fatalf("join produced non-matching row: %v", r)
		}
	}
}

func TestJoinMethodsAgree(t *testing.T) {
	sql := "SELECT COUNT(*) FROM customer JOIN orders ON customer.c_custkey = orders.o_custkey WHERE c_acctbal > 5000"
	counts := map[string]int64{}
	for name, mut := range map[string]func(*dbenv.Knobs){
		"hash":  func(k *dbenv.Knobs) { k.EnableMergeJoin = false; k.EnableNestLoop = false },
		"merge": func(k *dbenv.Knobs) { k.EnableHashJoin = false; k.EnableNestLoop = false },
		"nl":    func(k *dbenv.Knobs) { k.EnableHashJoin = false; k.EnableMergeJoin = false },
	} {
		env := quietEnv()
		mut(&env.Knobs)
		node, res := runSQL(t, tpch, env, sql)
		if res.Len() != 1 {
			t.Fatalf("%s: agg rows = %d", name, res.Len())
		}
		counts[name] = res.Rows()[0][0].I
		_ = node
	}
	if counts["hash"] != counts["merge"] || counts["hash"] != counts["nl"] {
		t.Fatalf("join methods disagree: %v", counts)
	}
	if counts["hash"] == 0 {
		t.Fatalf("join produced zero matches — workload broken")
	}
}

func TestSortOrdersOutput(t *testing.T) {
	env := quietEnv()
	node, res := runSQL(t, tpch, env, "SELECT * FROM orders WHERE o_totalprice > 440000 ORDER BY o_totalprice DESC")
	pi := node.ColIndex("orders", "o_totalprice")
	rows := res.Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i][pi].I > rows[i-1][pi].I {
			t.Fatalf("not descending at %d", i)
		}
	}
	if node.Op != planner.Sort {
		t.Fatalf("root = %v", node.Op)
	}
}

func TestLimitApplied(t *testing.T) {
	env := quietEnv()
	_, res := runSQL(t, tpch, env, "SELECT * FROM orders WHERE o_totalprice > 0 ORDER BY o_totalprice LIMIT 5")
	if res.Len() != 5 {
		t.Fatalf("limit rows = %d", res.Len())
	}
}

func TestAggregateGroupBy(t *testing.T) {
	env := quietEnv()
	node, res := runSQL(t, tpch, env,
		"SELECT COUNT(*), SUM(l_quantity), MIN(l_quantity), MAX(l_quantity), AVG(l_quantity) FROM lineitem GROUP BY l_returnflag")
	if res.Len() != 3 {
		t.Fatalf("groups = %d, want 3 (A,N,R)", res.Len())
	}
	var total int64
	for _, r := range res.Rows() {
		total += r[1].I // COUNT(*) is first agg after group col
		if r[3].I < 1 || r[4].I > 50 {
			t.Fatalf("min/max out of domain: %v", r)
		}
		if r[5].I < r[3].I || r[5].I > r[4].I {
			t.Fatalf("avg outside [min,max]: %v", r)
		}
	}
	if total != int64(tpch.DB.Heap("lineitem").NumRows()) {
		t.Fatalf("group counts sum to %d", total)
	}
	_ = node
}

func TestScalarAggregateOnEmptyInput(t *testing.T) {
	env := quietEnv()
	_, res := runSQL(t, tpch, env, "SELECT COUNT(*) FROM orders WHERE o_orderkey = -1")
	if rows := res.Rows(); len(rows) != 1 || rows[0][0].I != 0 {
		t.Fatalf("COUNT over empty = %v", rows)
	}
}

func TestThreeWayJoinCount(t *testing.T) {
	env := quietEnv()
	_, res := runSQL(t, tpch, env,
		"SELECT COUNT(*) FROM customer, orders, lineitem WHERE customer.c_custkey = orders.o_custkey AND orders.o_orderkey = lineitem.l_orderkey")
	// Every lineitem row joins to exactly one order and one customer.
	if got := res.Rows()[0][0].I; got != int64(tpch.DB.Heap("lineitem").NumRows()) {
		t.Fatalf("3-way count = %d, want %d", got, tpch.DB.Heap("lineitem").NumRows())
	}
}

func TestCostRespondsToEnvironment(t *testing.T) {
	sql := "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 30"
	fast := quietEnv()
	fast.HW, _ = dbenv.ProfileByName("i7-12700h-nvme")
	slow := quietEnv()
	slow.HW, _ = dbenv.ProfileByName("vm-hdd")
	slow.Knobs.SharedBuffersMB = 32
	_, fres := runSQL(t, tpch, fast, sql)
	_, sres := runSQL(t, tpch, slow, sql)
	if sres.TotalMs <= fres.TotalMs {
		t.Fatalf("slow env (%v) not slower than fast (%v)", sres.TotalMs, fres.TotalMs)
	}
}

func TestSpillMakesSortSlower(t *testing.T) {
	sql := "SELECT * FROM lineitem WHERE l_quantity > 0 ORDER BY l_extendedprice"
	big := quietEnv()
	big.Knobs.WorkMemKB = 1 << 20
	small := quietEnv()
	small.Knobs.WorkMemKB = 64
	_, bres := runSQL(t, tpch, big, sql)
	_, sres := runSQL(t, tpch, small, sql)
	if sres.TotalMs <= bres.TotalMs {
		t.Fatalf("spilling sort (%v ms) not slower than in-memory (%v ms)", sres.TotalMs, bres.TotalMs)
	}
}

func TestNoiseIsDeterministicPerSequence(t *testing.T) {
	env := dbenv.Default() // noisy
	sql := "SELECT COUNT(*) FROM sbtest1 WHERE k BETWEEN 4000 AND 6000"
	run := func() []float64 {
		pl := planner.New(sysb.Schema, sysb.Stats, env.Knobs)
		ex := New(sysb.DB, env)
		var out []float64
		for i := 0; i < 3; i++ {
			n, err := pl.Plan(sqlparse.MustParse(sql))
			if err != nil {
				t.Fatal(err)
			}
			res, err := ex.Execute(n)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.TotalMs)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("noise not reproducible: %v vs %v", a, b)
		}
	}
	if a[0] == a[1] && a[1] == a[2] {
		t.Fatalf("noise should vary across query sequence: %v", a)
	}
}

func TestPerNodeTimesSumToTotal(t *testing.T) {
	env := quietEnv()
	node, res := runSQL(t, tpch, env,
		"SELECT COUNT(*) FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey WHERE o_totalprice > 100000 GROUP BY o_orderpriority")
	var sum float64
	node.Walk(func(n *planner.Node) { sum += n.ActualMs })
	if diff := sum - res.TotalMs; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("node sum %v != total %v", sum, res.TotalMs)
	}
	// Input cardinalities must be recorded for snapshot fitting.
	node.Walk(func(n *planner.Node) {
		if n.ActualIn1 <= 0 && n.ActualRows > 0 {
			t.Fatalf("node %v missing ActualIn1", n.Op)
		}
	})
}

func TestSysbenchPointSelect(t *testing.T) {
	env := quietEnv()
	node, res := runSQL(t, sysb, env, "SELECT * FROM sbtest1 WHERE id = 777")
	if rows := res.Rows(); len(rows) != 1 || rows[0][0].I != 777 {
		t.Fatalf("point select = %v", rows)
	}
	if node.Op != planner.IndexScan {
		t.Fatalf("point select should use the PK index")
	}
	// A point select must be orders of magnitude cheaper than a full scan.
	_, scan := runSQL(t, sysb, env, "SELECT COUNT(*) FROM sbtest1 WHERE k > 0")
	if res.TotalMs*50 > scan.TotalMs {
		t.Fatalf("point=%v ms vs scan=%v ms — gap too small", res.TotalMs, scan.TotalMs)
	}
}
