package engine

import (
	"context"

	"repro/internal/catalog"
	"repro/internal/dbenv"
	"repro/internal/parallel"
	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// PoolTask is one (environment, query) labeling unit of a fan-out: a SQL
// string to parse, plan, and execute under Env with the given noise
// sequence (by convention, the query's 1-based index within its generated
// list — see ExecuteSeq).
type PoolTask struct {
	Env *dbenv.Environment
	Seq int64
	SQL string
}

// PoolResult is one task's outcome. OK is false when the query failed to
// parse, plan, or execute; the pipeline treats those as skipped.
type PoolResult struct {
	Node *planner.Node
	Ms   float64
	OK   bool
}

// ExecutePoolCtx runs labeling tasks across a bounded worker pool and
// returns one result per task, index-aligned. It is the shared fan-out of
// the labeling pipeline — workload collection, snapshot labeling, and the
// Figure 1 probe all funnel through it.
//
// It runs on the process-default worker count (parallel.DefaultWorkers).
// Each worker lazily builds one planner and one executor per environment
// (executors are not shareable across goroutines; the database, stats,
// and environments are read-only under execution). Because every task
// carries its own noise sequence and results land in index-addressed
// slots, the output is bit-identical at any worker count.
//
// Workers stop claiming tasks once ctx is cancelled, and ExecutePoolCtx
// then returns ctx's error together with the partial (index-aligned)
// results — tasks that never ran read as not-OK.
func ExecutePoolCtx(ctx context.Context, schema *catalog.Schema, stats *catalog.Stats, db *storage.Database, tasks []PoolTask) ([]PoolResult, error) {
	type envState struct {
		pl *planner.Planner
		ex *Executor
	}
	w := parallel.DefaultWorkers()
	states := make([]map[int]*envState, w)
	results := make([]PoolResult, len(tasks))
	err := parallel.ForEachWorkerCtx(ctx, len(tasks), w, func(worker, ti int) {
		t := tasks[ti]
		if states[worker] == nil {
			states[worker] = make(map[int]*envState)
		}
		st := states[worker][t.Env.ID]
		if st == nil {
			st = &envState{pl: planner.New(schema, stats, t.Env.Knobs), ex: New(db, t.Env)}
			states[worker][t.Env.ID] = st
		}
		q, err := sqlparse.Parse(t.SQL)
		if err != nil {
			return
		}
		node, err := st.pl.Plan(q)
		if err != nil {
			return
		}
		res, err := st.ex.ExecuteSeq(node, t.Seq)
		if err != nil {
			return
		}
		results[ti] = PoolResult{Node: node, Ms: res.TotalMs, OK: true}
	})
	return results, err
}
