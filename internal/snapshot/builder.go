package snapshot

import (
	"context"
	"fmt"

	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// Builder computes feature snapshots for one dataset in one environment by
// executing labeling queries and fitting the logical cost formulas to the
// per-operator measurements.
type Builder struct {
	DS  *datagen.Dataset
	Env *dbenv.Environment
}

// NewBuilder constructs a snapshot builder.
func NewBuilder(ds *datagen.Dataset, env *dbenv.Environment) *Builder {
	return &Builder{DS: ds, Env: env}
}

// BuildResult carries the fitted snapshot plus the labeling cost, which
// Table V reports (FSO's hours of original queries vs FST's minutes of
// simplified templates).
type BuildResult struct {
	Snapshot *Snapshot
	// CollectionMs is the total simulated execution time of the labeling
	// queries — the quantity the paper reports as collection cost.
	CollectionMs float64
	// QueriesRun counts the labeling queries that planned and executed.
	QueriesRun int
}

// FromQueriesCtx executes the given labeling queries across the worker
// pool and fits the snapshot. Queries that fail to plan (e.g. templates
// referencing another schema) are skipped; at least one successful query
// is required. Each query's noise sequence is its index in sqls and the
// fan-in runs in index order, so the fitted snapshot and its collection
// cost are identical at any worker count. The labeling fan-out stops
// claiming queries once ctx is cancelled, and the build then returns
// ctx's error instead of a snapshot fitted on a partial sample.
func (b *Builder) FromQueriesCtx(ctx context.Context, sqls []string) (*BuildResult, error) {
	tasks := make([]engine.PoolTask, len(sqls))
	for i, sql := range sqls {
		tasks[i] = engine.PoolTask{Env: b.Env, Seq: int64(i + 1), SQL: sql}
	}
	results, err := engine.ExecutePoolCtx(ctx, b.DS.Schema, b.DS.Stats, b.DS.DB, tasks)
	if err != nil {
		return nil, fmt.Errorf("snapshot: labeling cancelled: %w", err)
	}
	var samples []OpSample
	var totalMs float64
	var ran int
	for _, r := range results {
		if !r.OK {
			continue
		}
		totalMs += r.Ms
		samples = append(samples, CollectSamples(r.Node)...)
		ran++
	}
	if ran == 0 {
		return nil, fmt.Errorf("snapshot: no labeling query executed successfully")
	}
	snap, err := Fit(samples)
	if err != nil {
		return nil, err
	}
	return &BuildResult{Snapshot: snap, CollectionMs: totalMs, QueriesRun: ran}, nil
}

// FromTemplatesCtx runs the full FST pipeline (§III-B): generate
// simplified templates from the original workload templates via
// Algorithm 1, execute them, and fit (see FromQueriesCtx, which also
// covers cancellation).
func (b *Builder) FromTemplatesCtx(ctx context.Context, originals []*sqlparse.Query, scale int, seed int64) (*BuildResult, error) {
	gen := NewTemplateGen(b.DS.Schema, b.DS.Stats)
	sqls := gen.Generate(originals, scale, seed)
	if len(sqls) == 0 {
		return nil, fmt.Errorf("snapshot: template generation produced no queries")
	}
	return b.FromQueriesCtx(ctx, sqls)
}
