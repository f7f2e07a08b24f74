package workload

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/sqlparse"
)

// Sample is one labeled query: its annotated physical plan (plan estimates
// plus execution actuals) and the simulated latency under one environment.
type Sample struct {
	SQL   string
	Plan  *planner.Node
	Ms    float64
	EnvID int
}

// Labeled is a labeled query pool for one benchmark across an environment
// set, the unit the paper's experiments slice into scales 2000…10000.
type Labeled struct {
	Dataset *datagen.Dataset
	Envs    []*dbenv.Environment
	Samples []Sample
}

// Collect generates `perEnv` queries per environment from the benchmark's
// templates and executes them across the default worker pool, producing
// the labeled pool. Queries that fail to plan are skipped (and counted); a
// failure rate above 10% is reported as an error since it would bias the
// workload. Two environments with one ID are rejected with a
// *dbenv.DuplicateIDError.
//
// The pool is bit-identical at every worker count: queries are generated
// serially per environment, each (env, query-index) pair carries its own
// noise sequence, and samples are assembled in generation order before
// the seed-keyed shuffle. The labeling fan-out stops claiming
// (environment, query) tasks once ctx is cancelled, and Collect then
// returns ctx's error instead of a partial pool.
func Collect(ctx context.Context, ds *datagen.Dataset, envs []*dbenv.Environment, perEnv int, seed int64) (*Labeled, error) {
	if err := dbenv.CheckDistinctIDs(envs); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	templates := TemplatesFor(ds.Name)
	if templates == nil {
		return nil, fmt.Errorf("workload: unknown benchmark %q", ds.Name)
	}
	lab := &Labeled{Dataset: ds, Envs: envs}
	tasks := make([]engine.PoolTask, 0, len(envs)*perEnv)
	for ei, env := range envs {
		gen := NewGenerator(ds, seed+int64(ei)*7919)
		sqls, err := gen.Generate(templates, perEnv)
		if err != nil {
			return nil, err
		}
		for qi, sql := range sqls {
			tasks = append(tasks, engine.PoolTask{Env: env, Seq: int64(qi + 1), SQL: sql})
		}
	}
	results, err := engine.ExecutePoolCtx(ctx, ds.Schema, ds.Stats, ds.DB, tasks)
	if err != nil {
		return nil, fmt.Errorf("workload: collection cancelled: %w", err)
	}

	// Deterministic fan-in: samples in generation order, failures counted.
	var failed int
	for ti, r := range results {
		if !r.OK {
			failed++
			continue
		}
		env := tasks[ti].Env
		r.Node.Walk(func(n *planner.Node) { n.EnvID = env.ID })
		lab.Samples = append(lab.Samples, Sample{SQL: tasks[ti].SQL, Plan: r.Node, Ms: r.Ms, EnvID: env.ID})
	}
	if len(tasks) == 0 || float64(failed)/float64(len(tasks)) > 0.10 {
		return nil, fmt.Errorf("workload: %d/%d labeling queries failed", failed, len(tasks))
	}
	// Shuffle once so scale-N subsets mix environments uniformly.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(lab.Samples), func(i, j int) {
		lab.Samples[i], lab.Samples[j] = lab.Samples[j], lab.Samples[i]
	})
	return lab, nil
}

// Scale returns the first n samples of the shuffled pool (the paper's
// scale-2000…10000 subsets).
func (l *Labeled) Scale(n int) []Sample {
	if n > len(l.Samples) {
		n = len(l.Samples)
	}
	return l.Samples[:n]
}

// Split divides samples into train/test with the given train fraction
// (the paper uses 80/20).
func Split(samples []Sample, trainFrac float64) (train, test []Sample) {
	cut := int(float64(len(samples)) * trainFrac)
	return samples[:cut], samples[cut:]
}

// PlansAndLabels unzips samples for model training.
func PlansAndLabels(samples []Sample) ([]*planner.Node, []float64) {
	plans := make([]*planner.Node, len(samples))
	ms := make([]float64, len(samples))
	for i, s := range samples {
		plans[i] = s.Plan
		ms[i] = s.Ms
	}
	return plans, ms
}

// OriginalQueries parses one instantiation of every benchmark template —
// the "original query templates P" input of Algorithm 1.
func OriginalQueries(ds *datagen.Dataset, seed int64) ([]*sqlparse.Query, error) {
	gen := NewGenerator(ds, seed)
	sqls, err := gen.Generate(TemplatesFor(ds.Name), len(TemplatesFor(ds.Name)))
	if err != nil {
		return nil, err
	}
	var out []*sqlparse.Query
	for _, sql := range sqls {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("workload: template instantiation unparseable: %q: %w", sql, err)
		}
		out = append(out, q)
	}
	return out, nil
}
