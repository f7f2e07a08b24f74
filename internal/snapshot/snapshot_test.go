package snapshot

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/planner"
	"repro/internal/sqlparse"
)

var tpch = datagen.TPCH(1)

func quietEnv() *dbenv.Environment {
	e := dbenv.Default()
	e.NoiseStd = 0
	return e
}

func TestDesignRows(t *testing.T) {
	r := designRow(planner.SeqScan, 100, 0)
	if r[0] != 100 || r[1] != 1 || r[2] != 0 {
		t.Fatalf("seq scan row = %v", r)
	}
	r = designRow(planner.Sort, 8, 0)
	if r[0] != 8*3 || r[1] != 1 {
		t.Fatalf("sort row = %v (want n·log2 n)", r)
	}
	r = designRow(planner.HashJoin, 10, 20)
	if r[0] != 30 || r[1] != 1 {
		t.Fatalf("hash join row = %v", r)
	}
	r = designRow(planner.NestedLoop, 3, 4)
	if r[0] != 12 || r[1] != 3 || r[2] != 4 || r[3] != 1 {
		t.Fatalf("nested loop row = %v", r)
	}
}

func TestFitRecoversSyntheticCoefficients(t *testing.T) {
	// Generate samples from a known formula and check recovery.
	rng := rand.New(rand.NewSource(1))
	var samples []OpSample
	c0, c1 := 0.002, 1.5
	for i := 0; i < 200; i++ {
		n := float64(10 + rng.Intn(100000))
		samples = append(samples, OpSample{Op: planner.SeqScan, N1: n, Ms: c0*n + c1})
	}
	snap, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Coeffs[planner.SeqScan]
	if math.Abs(got[0]-c0) > 1e-6 || math.Abs(got[1]-c1) > 1e-3 {
		t.Fatalf("recovered %v, want [%v %v 0 0]", got, c0, c1)
	}
	// Formula evaluation round-trips.
	if ms := snap.FormulaMs(planner.SeqScan, 1000, 0); math.Abs(ms-(c0*1000+c1)) > 1e-3 {
		t.Fatalf("FormulaMs = %v", ms)
	}
}

func TestFitEmptyOperatorGetsZeros(t *testing.T) {
	snap, err := Fit([]OpSample{{Op: planner.SeqScan, N1: 10, Ms: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range snap.Coeffs[planner.Sort] {
		if c != 0 {
			t.Fatalf("unfit operator should have zero coefficients: %v", snap.Coeffs[planner.Sort])
		}
	}
	if snap.FormulaMs(planner.Sort, 100, 0) != 0 {
		t.Fatalf("unfit formula should be 0")
	}
}

func TestFitNonNegative(t *testing.T) {
	// Real engine samples must produce non-negative coefficients.
	b := NewBuilder(tpch, quietEnv())
	res, err := b.FromQueriesCtx(context.Background(), []string{
		"SELECT * FROM lineitem WHERE l_quantity < 30",
		"SELECT * FROM lineitem WHERE l_quantity < 10 ORDER BY l_extendedprice",
		"SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000 GROUP BY o_orderpriority",
		"SELECT * FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey WHERE o_totalprice > 300000",
		"SELECT * FROM orders WHERE o_orderkey = 55",
	})
	if err != nil {
		t.Fatal(err)
	}
	for op, cs := range res.Snapshot.Coeffs {
		for i, c := range cs {
			if c < 0 {
				t.Fatalf("%v coeff[%d] = %v negative", op, i, c)
			}
		}
	}
	if res.CollectionMs <= 0 || res.QueriesRun != 5 {
		t.Fatalf("collection bookkeeping: ms=%v run=%d", res.CollectionMs, res.QueriesRun)
	}
}

func TestSnapshotPredictsNodeTime(t *testing.T) {
	// A snapshot fitted on scan-heavy labeling queries should predict a
	// fresh seq-scan node's time within a reasonable factor.
	env := quietEnv()
	b := NewBuilder(tpch, env)
	var sqls []string
	for _, q := range []string{"5", "15", "25", "35", "45"} {
		sqls = append(sqls, "SELECT * FROM lineitem WHERE l_quantity < "+q)
		sqls = append(sqls, "SELECT * FROM orders WHERE o_totalprice > "+q+"000")
	}
	res, err := b.FromQueriesCtx(context.Background(), sqls)
	if err != nil {
		t.Fatal(err)
	}
	// Execute a held-out scan.
	pl := planner.New(tpch.Schema, tpch.Stats, env.Knobs)
	node, _ := pl.Plan(sqlparse.MustParse("SELECT * FROM lineitem WHERE l_quantity < 20"))
	ex := engine.New(tpch.DB, env)
	if _, err := ex.Execute(node); err != nil {
		t.Fatal(err)
	}
	pred := res.Snapshot.FormulaMs(planner.SeqScan, node.ActualIn1, 0)
	actual := node.ActualMs
	ratio := pred / actual
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("formula predicts %v ms vs actual %v ms (ratio %v)", pred, actual, ratio)
	}
}

func TestSnapshotTracksEnvironment(t *testing.T) {
	// The whole point of the snapshot: coefficients differ across
	// environments for the same workload.
	sqls := []string{
		"SELECT * FROM lineitem WHERE l_quantity < 30",
		"SELECT * FROM lineitem WHERE l_quantity < 10",
	}
	fast := quietEnv()
	slow := quietEnv()
	slow.HW, _ = dbenv.ProfileByName("vm-hdd")
	slow.Knobs.SharedBuffersMB = 32
	fres, err := NewBuilder(tpch, fast).FromQueriesCtx(context.Background(), sqls)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := NewBuilder(tpch, slow).FromQueriesCtx(context.Background(), sqls)
	if err != nil {
		t.Fatal(err)
	}
	f := fres.Snapshot.FormulaMs(planner.SeqScan, 60000, 0)
	s := sres.Snapshot.FormulaMs(planner.SeqScan, 60000, 0)
	if s <= f*1.5 {
		t.Fatalf("slow-env snapshot (%v) should price scans much higher than fast (%v)", s, f)
	}
}

func TestFeaturesShape(t *testing.T) {
	env := quietEnv()
	b := NewBuilder(tpch, env)
	res, err := b.FromQueriesCtx(context.Background(), []string{"SELECT * FROM lineitem WHERE l_quantity < 30"})
	if err != nil {
		t.Fatal(err)
	}
	pl := planner.New(tpch.Schema, tpch.Stats, env.Knobs)
	node, _ := pl.Plan(sqlparse.MustParse("SELECT * FROM lineitem WHERE l_quantity < 5"))
	f := res.Snapshot.Features(node)
	if len(f) != FeatureDim {
		t.Fatalf("feature dim = %d, want %d", len(f), FeatureDim)
	}
	if f[0] <= 0 {
		t.Fatalf("formula feature should be positive for a fitted scan, got %v", f[0])
	}
	if len(FeatureNames()) != FeatureDim {
		t.Fatalf("names misaligned")
	}
}

func tpchOriginalQueries() []*sqlparse.Query {
	sqls := []string{
		"SELECT * FROM lineitem WHERE l_shipdate > 9000 ORDER BY l_shipdate",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 24 GROUP BY l_returnflag",
		"SELECT * FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey WHERE o_totalprice > 100000",
		"SELECT * FROM partsupp WHERE ps_availqty > 500",
	}
	qs := make([]*sqlparse.Query, len(sqls))
	for i, s := range sqls {
		qs[i] = sqlparse.MustParse(s)
	}
	return qs
}

func TestTemplateParsePhase(t *testing.T) {
	g := NewTemplateGen(tpch.Schema, tpch.Stats)
	info := g.ParseTemplates(tpchOriginalQueries())
	if len(info[tplScan]) < 3 {
		t.Fatalf("scan pairs = %v", info[tplScan])
	}
	if len(info[tplJoin]) != 1 || info[tplJoin][0].Table2 != "lineitem" {
		t.Fatalf("join pairs = %v", info[tplJoin])
	}
	if len(info[tplSort]) != 1 || len(info[tplAgg]) != 1 {
		t.Fatalf("sort/agg pairs = %v / %v", info[tplSort], info[tplAgg])
	}
	// Deduplication: parsing the same templates twice must not grow.
	info2 := g.ParseTemplates(append(tpchOriginalQueries(), tpchOriginalQueries()...))
	if len(info2[tplScan]) != len(info[tplScan]) {
		t.Fatalf("dedup failed: %d vs %d", len(info2[tplScan]), len(info[tplScan]))
	}
}

func TestTemplateGenerateAndFill(t *testing.T) {
	g := NewTemplateGen(tpch.Schema, tpch.Stats)
	sqls := g.Generate(tpchOriginalQueries(), 3, 42)
	if len(sqls) == 0 {
		t.Fatalf("no queries generated")
	}
	// Scale multiplies the template count.
	one := g.Generate(tpchOriginalQueries(), 1, 42)
	if len(sqls) != 3*len(one) {
		t.Fatalf("scale scaling wrong: %d vs 3×%d", len(sqls), len(one))
	}
	// Every generated query must parse and plan.
	pl := planner.New(tpch.Schema, tpch.Stats, dbenv.DefaultKnobs())
	for _, sql := range sqls {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("generated query does not parse: %q: %v", sql, err)
		}
		if _, err := pl.Plan(q); err != nil {
			t.Fatalf("generated query does not plan: %q: %v", sql, err)
		}
	}
	// Deterministic per seed.
	again := g.Generate(tpchOriginalQueries(), 3, 42)
	if strings.Join(sqls, ";") != strings.Join(again, ";") {
		t.Fatalf("generation not deterministic")
	}
}

func TestTemplatesCheaperThanOriginals(t *testing.T) {
	// The §III-B claim: simplified templates cost far less to execute than
	// the original workload while exercising the same operators.
	env := quietEnv()
	b := NewBuilder(tpch, env)

	originals := []string{
		"SELECT COUNT(*) FROM customer, orders, lineitem WHERE customer.c_custkey = orders.o_custkey AND orders.o_orderkey = lineitem.l_orderkey GROUP BY o_orderpriority ORDER BY o_orderpriority",
		"SELECT * FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey WHERE o_totalprice > 1000 ORDER BY o_totalprice",
	}
	fso, err := b.FromQueriesCtx(context.Background(), originals)
	if err != nil {
		t.Fatal(err)
	}
	var parsed []*sqlparse.Query
	for _, s := range originals {
		parsed = append(parsed, sqlparse.MustParse(s))
	}
	fst, err := b.FromTemplatesCtx(context.Background(), parsed, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fst.CollectionMs >= fso.CollectionMs {
		t.Fatalf("templates (%.1f ms) should be cheaper than originals (%.1f ms)",
			fst.CollectionMs, fso.CollectionMs)
	}
	// And the template snapshot must still have fitted the join operators.
	join := fst.Snapshot.Samples[planner.HashJoin] + fst.Snapshot.Samples[planner.MergeJoin] + fst.Snapshot.Samples[planner.NestedLoop]
	if join == 0 {
		t.Fatalf("template snapshot saw no join operators")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(tpch, quietEnv())
	if _, err := b.FromQueriesCtx(context.Background(), []string{"not sql", "SELECT * FROM ghost"}); err == nil {
		t.Fatalf("expected error when nothing executes")
	}
	if _, err := b.FromTemplatesCtx(context.Background(), nil, 2, 1); err == nil {
		t.Fatalf("expected error on empty originals")
	}
}

// refFeatures is Snapshot.Features as it stood before FeaturesInto, with
// the slice-returning designRow it evaluated the formula through.
func refFeatures(s *Snapshot, n *planner.Node) []float64 {
	refDesignRow := func(op planner.OpType, n1, n2 float64) []float64 {
		row := make([]float64, CoeffDim)
		switch op {
		case planner.Sort:
			row[0] = n1 * safeLog2(n1)
			row[1] = 1
		case planner.NestedLoop:
			row[0] = n1 * n2
			row[1] = n1
			row[2] = n2
			row[3] = 1
		case planner.HashJoin, planner.MergeJoin:
			row[0] = n1 + n2
			row[1] = 1
		default: // SeqScan, IndexScan, Aggregate, Materialize
			row[0] = n1
			row[1] = 1
		}
		return row
	}
	n1, n2 := n.EstIn1, n.EstIn2
	out := make([]float64, FeatureDim)
	var ms float64
	if coef := s.Coeffs[n.Op]; coef != nil {
		for i, r := range refDesignRow(n.Op, n1, n2) {
			ms += r * coef[i]
		}
	}
	out[0] = metrics.LogMs(ms)
	coef := s.Coeffs[n.Op]
	for i := 0; i < CoeffDim && coef != nil; i++ {
		out[1+i] = coeffFeature(coef[i])
	}
	return out
}

// TestFeaturesIntoMatchesReference: the allocation-free block equals the
// old one bit for bit for every operator — including one the snapshot has
// no coefficients for — and overwrites whatever dst held.
func TestFeaturesIntoMatchesReference(t *testing.T) {
	var samples []OpSample
	for _, op := range planner.AllOpTypes() {
		if op == planner.Materialize {
			continue
		}
		for k := 1; k <= 6; k++ {
			n1, n2 := float64(90*k*k), float64(31*k)
			samples = append(samples, OpSample{Op: op, N1: n1, N2: n2, Ms: 0.003*n1 + 0.0007*n2 + 0.2})
		}
	}
	s, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	delete(s.Coeffs, planner.Materialize) // a hand-built snapshot may lack an operator
	for _, op := range planner.AllOpTypes() {
		n := &planner.Node{Op: op, EstIn1: 12345, EstIn2: 678}
		want := refFeatures(s, n)
		dst := []float64{9, 9, 9, 9, 9}
		s.FeaturesInto(n, dst)
		got := s.Features(n)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: FeaturesInto %v, Features %v, reference %v", op, dst, got, want)
			}
		}
	}
}
