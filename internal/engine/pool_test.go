package engine_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// withDefaultWorkers runs the rest of t, its parallel subtests included, on
// n pool workers, and puts the process default (0, GOMAXPROCS) back when t
// ends. No other engine test sets the count.
func withDefaultWorkers(t *testing.T, n int) {
	parallel.SetDefaultWorkers(n)
	t.Cleanup(func() { parallel.SetDefaultWorkers(0) })
}

// TestPoolMatchesExecuteSeq labels every template of every benchmark,
// with two literal draws each (one under -short), under three sampled
// environments, through ExecutePoolCtx, which never asks for result rows, and
// through ExecuteSeq one query at a time. Every query must succeed or fail
// alike, with the same total and, on every plan node, the same actual
// rows, input cardinalities and time, bit for bit.
func TestPoolMatchesExecuteSeq(t *testing.T) {
	withDefaultWorkers(t, 2)
	draws := 2
	if testing.Short() {
		draws = 1
	}
	for _, bench := range datagen.BenchmarkNames() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			ds, err := datagen.Build(bench, 1)
			if err != nil {
				t.Fatal(err)
			}
			templates := workload.TemplatesFor(bench)
			sqls, err := workload.NewGenerator(ds, 31).Generate(templates, draws*len(templates))
			if err != nil {
				t.Fatal(err)
			}
			envs := dbenv.SampleSet(3, 31)
			var tasks []engine.PoolTask
			for _, env := range envs {
				for qi, sql := range sqls {
					tasks = append(tasks, engine.PoolTask{Env: env, Seq: int64(qi + 1), SQL: sql})
				}
			}
			pooled, err := engine.ExecutePoolCtx(context.Background(), ds.Schema, ds.Stats, ds.DB, tasks)
			if err != nil {
				t.Fatal(err)
			}
			labelled := 0
			for ei, env := range envs {
				pl := planner.New(ds.Schema, ds.Stats, env.Knobs)
				ex := engine.New(ds.DB, env)
				for qi, sql := range sqls {
					ti := len(sqls)*ei + qi
					where := fmt.Sprintf("%s env %d query %d %q", bench, env.ID, qi, sql)
					node, err := pl.Plan(sqlparse.MustParse(sql))
					var res *engine.Result
					if err == nil {
						res, err = ex.ExecuteSeq(node, int64(qi+1))
					}
					got := pooled[ti]
					if got.OK != (err == nil) {
						t.Fatalf("%s: pool OK = %v, ExecuteSeq error %v", where, got.OK, err)
					}
					if err != nil {
						continue
					}
					labelled++
					if math.Float64bits(got.Ms) != math.Float64bits(res.TotalMs) {
						t.Fatalf("%s: pool Ms %v, ExecuteSeq TotalMs %v", where, got.Ms, res.TotalMs)
					}
					compareActuals(t, where, got.Node, node)
				}
			}
			t.Logf("%d of %d tasks labelled alike", labelled, len(tasks))
		})
	}
}

// TestLabelAllocations holds labelling to the late-materialised executor's
// memory, through ExecutePoolCtx, which never asks for result rows, under each
// of the fit workload's three environments. Each ceiling is the heaviest
// environment's reading plus 15%.
//   - TPC-H Q21, supplier ⋈ lineitem ⋈ orders grouped by s_name, the
//     heaviest query of the fit workload: when operators copied values into
//     join rows it allocated 69.4 MB; with row-id tuples, 3.53 MB.
//   - The heaviest FST snapshot query, a root ORDER BY over a string key:
//     when ExecuteSeq sorted the root's tuples it allocated 0.67 MB; with
//     the order left to Result.Rows, 0.18 MB.
func TestLabelAllocations(t *testing.T) {
	cases := []struct {
		name, sql string
		maxBytes  uint64
	}{
		{"Q21", "SELECT COUNT(*) FROM supplier, lineitem, orders WHERE supplier.s_suppkey = lineitem.l_suppkey AND lineitem.l_orderkey = orders.o_orderkey AND o_orderstatus = 'F' GROUP BY s_name", 4_060_000},
		{"root ORDER BY", "SELECT * FROM lineitem WHERE lineitem.l_returnflag <> 'N' ORDER BY lineitem.l_returnflag", 207_000},
	}
	withDefaultWorkers(t, 1)
	ds, err := datagen.Build("tpch", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		for _, env := range dbenv.SampleSet(3, 1) {
			tasks := []engine.PoolTask{{Env: env, Seq: 1, SQL: tc.sql}}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := engine.ExecutePoolCtx(context.Background(), ds.Schema, ds.Stats, ds.DB, tasks)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if !res[0].OK {
				t.Fatalf("%s, env %d: labelling failed", tc.name, env.ID)
			}
			bytes := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s, env %d: %.3f MB allocated labelling the query", tc.name, env.ID, float64(bytes)/1e6)
			if bytes > tc.maxBytes {
				t.Fatalf("%s, env %d: labelling allocated %.2f MB, ceiling %.2f MB", tc.name, env.ID, float64(bytes)/1e6, float64(tc.maxBytes)/1e6)
			}
		}
	}
}
