package qcfe

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/planner"
)

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// missVariants returns n literal variants of TPC-H Q3 (a three-way join
// with a grouped aggregate) that no earlier call with a lower `from`
// returned: the (segment, order date) pair is unique per index.
func missVariants(from, n int) []string {
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	out := make([]string, n)
	for k := range out {
		i := from + k
		out[k] = fmt.Sprintf("SELECT COUNT(*) FROM customer, orders, lineitem"+
			" WHERE customer.c_custkey = orders.o_custkey AND orders.o_orderkey = lineitem.l_orderkey"+
			" AND c_mktsegment = '%s' AND o_orderdate < %d GROUP BY o_orderpriority",
			segments[i%len(segments)], 8036+i/len(segments))
	}
	return out
}

// TestMissAllocationBudget is the regression guard on what one priced
// miss costs the allocator. A template-tier hit with fresh literals runs
// the whole miss path — fingerprint, bind, plan, featurize, batched
// inference, three cache stores — and should allocate only what outlives
// it (the plan tree, the cached feature rows, the cache keys and the
// result slice). The ceilings leave headroom for toolchain differences;
// the figures this repo measures are recorded in CHANGES.md.
func TestMissAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		maxBytesPerMiss   = 9600 // measured 8.3 KB batched, 7.1 KB single, plus ~15%
		maxObjectsPerMiss = 51   // measured 42.3 batched, 44.0 single, plus ~15%
		batch             = 64
		batches           = 32 // 2048 misses batched, 2048 more singly
	)
	b, err := OpenBenchmark("tpch", 1)
	if err != nil {
		t.Fatal(err)
	}
	envs := RandomEnvironments(2, 1)
	pool, err := b.CollectWorkload(envs, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(0.8)
	est, err := NewPipeline("mscn", WithTrainIters(20), WithReferences(20), WithSeed(3)).Fit(b, envs, train)
	if err != nil {
		t.Fatal(err)
	}
	// Room for every entry the test stores: eviction is not on the budget.
	est.AttachCache(NewQueryCache(CacheOptions{Capacity: 8192}))
	env := est.Environments()[0]

	// Prime the template tier, the pools and the cache shards' lazily
	// built state with variants the measured windows never repeat.
	if _, err := est.EstimateSQLBatch(env, missVariants(0, batch)); err != nil {
		t.Fatal(err)
	}
	if _, err := est.EstimateSQL(env, missVariants(batch, 1)[0]); err != nil {
		t.Fatal(err)
	}
	next := 2 * batch

	measure := func(name string, misses int, run func()) {
		t.Helper()
		before, _ := est.CacheStats()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		after, _ := est.CacheStats()
		if got := after.Template.Hits - before.Template.Hits; got != int64(misses) {
			t.Fatalf("%s: %d template-tier hits for %d queries — not the miss path this test budgets", name, got, misses)
		}
		if got := after.Prediction.Hits - before.Prediction.Hits; got != 0 {
			t.Fatalf("%s: %d prediction-tier hits, want every query a miss", name, got)
		}
		bytesPer := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(misses)
		objsPer := float64(m1.Mallocs-m0.Mallocs) / float64(misses)
		t.Logf("%s: %.0f B and %.1f objects per priced miss, %d GC cycles over %d misses",
			name, bytesPer, objsPer, m1.NumGC-m0.NumGC, misses)
		if bytesPer > maxBytesPerMiss || objsPer > maxObjectsPerMiss {
			t.Errorf("%s: a priced miss allocates %.0f B in %.1f objects, budget %d B / %d objects",
				name, bytesPer, objsPer, maxBytesPerMiss, maxObjectsPerMiss)
		}
	}

	queries := missVariants(next, 2*batch*batches)
	batched, single := queries[:batch*batches], queries[batch*batches:]
	measure("batch64", len(batched), func() {
		for i := 0; i < len(batched); i += batch {
			if _, err := est.EstimateSQLBatch(env, batched[i:i+batch]); err != nil {
				t.Fatal(err)
			}
		}
	})
	measure("single", len(single), func() {
		for _, sql := range single {
			if _, err := est.EstimateSQL(env, sql); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestEstimateMsAllocs pins what pricing one plan with EstimateMs costs
// the allocator on both learned models. A single plan is priced as a
// batch of one on the pooled inference scratch, so what is left is the
// one-element plan slice, the result slice and, for qppnet, the plan's
// featurization and execution skeleton. The ceilings are the counts
// measured on this two-node plan.
func TestEstimateMsAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector changes allocation counts")
	}
	// TPC-H Q6 (forecasting revenue change): an aggregate over one
	// filtered scan of lineitem.
	const q6 = "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem" +
		" WHERE l_shipdate BETWEEN 8400 AND 8765 AND l_quantity < 24"
	b, err := OpenBenchmark("tpch", 1)
	if err != nil {
		t.Fatal(err)
	}
	envs := RandomEnvironments(2, 1)
	pool, err := b.CollectWorkload(envs, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := pool.Split(0.8)
	plan, err := b.Plan(envs[0], q6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		model     string
		maxAllocs float64
	}{
		{"mscn", 2},    // the plan slice and the result slice
		{"qppnet", 16}, // plus the plan's featurization and skeleton
	} {
		est, err := NewPipeline(tc.model, WithTrainIters(20), WithReferences(20), WithSeed(3)).Fit(b, envs, train)
		if err != nil {
			t.Fatal(err)
		}
		want := est.EstimateBatch([]*planner.Node{plan})[0]
		if got := est.EstimateMs(plan); got != want {
			t.Fatalf("%s: EstimateMs %v != EstimateBatch %v", tc.model, got, want)
		}
		allocs := testing.AllocsPerRun(200, func() { est.EstimateMs(plan) })
		t.Logf("%s: %d-node plan, %.0f allocations per EstimateMs", tc.model, plan.CountNodes(), allocs)
		if allocs > tc.maxAllocs {
			t.Errorf("%s: EstimateMs allocates %.0f objects, ceiling %.0f", tc.model, allocs, tc.maxAllocs)
		}
	}
}
