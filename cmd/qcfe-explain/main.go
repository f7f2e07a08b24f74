// Command qcfe-explain plans and executes one SQL query against a
// benchmark dataset and prints an EXPLAIN-ANALYZE-style report: the
// physical plan with estimates and actuals, the simulated latency, the
// PostgreSQL-style analytic estimate, and the feature-snapshot formula
// estimate per operator.
//
// Usage:
//
//	qcfe-explain -benchmark tpch -sql "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 24"
//	qcfe-explain -benchmark sysbench -env 3 -sql "SELECT * FROM sbtest1 WHERE id = 100"
//
// With -cache-stats it also prints the query's fingerprint, literal
// signature, and tier keys in the query cache (internal/qcache), traces
// which tier each kind of repeat would hit, and verifies that the
// template tier's skeleton rebind re-plans to the executed plan exactly.
package main

import (
	"flag"
	"fmt"
	"os"

	qcfe "repro"
	"repro/internal/dbenv"
	"repro/internal/planner"
	"repro/internal/qcache"
	"repro/internal/sqlparse"
)

func main() {
	benchmark := flag.String("benchmark", "tpch", "benchmark: tpch|sysbench|imdb")
	sql := flag.String("sql", "", "SQL query to explain (required)")
	envID := flag.Int("env", -1, "random environment id (-1 = default environment)")
	seed := flag.Int64("seed", 1, "dataset seed")
	cacheStats := flag.Bool("cache-stats", false, "print the query's fingerprint and tier-by-tier query-cache hit path")
	flag.Parse()
	if *sql == "" {
		fmt.Fprintln(os.Stderr, "qcfe-explain: -sql is required")
		os.Exit(2)
	}

	bench, err := qcfe.OpenBenchmark(*benchmark, *seed)
	if err != nil {
		fail(err)
	}
	env := qcfe.DefaultEnvironment()
	if *envID >= 0 {
		envs := dbenv.SampleSet(*envID+1, *seed)
		env = envs[*envID]
	}

	res, err := bench.Execute(env, *sql)
	if err != nil {
		fail(err)
	}
	fmt.Printf("environment: %s\n", env)
	fmt.Printf("query: %s\n\n", *sql)
	fmt.Print(res.Plan.Explain())
	fmt.Printf("\nrows returned:        %d\n", res.Rows)
	fmt.Printf("simulated latency:    %.3f ms\n", res.Ms)
	fmt.Printf("pg-style estimate:    %.3f ms\n", bench.AnalyticEstimateMs(res.Plan))
	if *cacheStats {
		if err := printCacheStats(bench, env, *sql); err != nil {
			fail(err)
		}
	}
}

// printCacheStats traces the query through the cache's split front-half
// steps — Fingerprint, skeleton Clone/BindLiterals + PlanResolved —
// without duplicating any plan walking of its own.
func printCacheStats(bench *qcfe.Benchmark, env *qcfe.Environment, sql string) error {
	fp, lits, err := sqlparse.Fingerprint(sql)
	if err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	sig := sqlparse.Signature(lits)
	fmt.Printf("\nquery cache (internal/qcache):\n")
	fmt.Printf("  fingerprint:        %s\n", fp)
	fmt.Printf("  literals:           %d", len(lits))
	for _, l := range lits {
		if l.Str {
			fmt.Printf("  '%s'", l.Raw)
		} else {
			fmt.Printf("  %s", l.Raw)
		}
	}
	fmt.Println()
	fmt.Printf("  tier keys:\n")
	fmt.Printf("    prediction:       %q\n", qcache.PredictionKey(env.ID, sql))
	fmt.Printf("    feature (answer): %q\n", qcache.FeatureKey(env.ID, fp, sig))
	fmt.Printf("    template:         %q\n", qcache.TemplateKey(env.ID, fp))

	// The split steps, exactly as a template-tier hit runs them: parse
	// once to build the skeleton, then clone+bind+PlanResolved.
	ds := bench.Dataset()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return err
	}
	pl := planner.New(ds.Schema, ds.Stats, env.Knobs)
	cold, err := pl.Plan(q) // resolves q in place → q is the skeleton
	if err != nil {
		return err
	}
	rebind := q.Clone()
	if err := rebind.BindLiterals(lits); err != nil {
		return fmt.Errorf("rebind: %w", err)
	}
	warm, err := pl.PlanResolved(rebind)
	if err != nil {
		return fmt.Errorf("replan from skeleton: %w", err)
	}
	match := "bit-identical"
	if warm.Explain() != cold.Explain() {
		match = "MISMATCH (cache would fall back to full planning)"
	}
	fmt.Printf("  hit path:\n")
	fmt.Printf("    exact repeat:     prediction tier (skips parse+plan+featurize+inference)\n")
	fmt.Printf("    same semantics:   feature tier (cached answer; skips all but fingerprinting)\n")
	fmt.Printf("    literal variant:  template tier (skeleton %d nodes; rebind %d literals, replan: %s)\n",
		cold.CountNodes(), len(lits), match)
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "qcfe-explain: %v\n", err)
	os.Exit(1)
}
