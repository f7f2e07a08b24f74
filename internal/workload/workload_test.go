package workload

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dbenv"
	"repro/internal/planner"
	"repro/internal/sqlparse"
)

var (
	tpch = datagen.TPCH(1)
	imdb = datagen.IMDB(1)
	sysb = datagen.Sysbench(1)
)

func TestTemplateCounts(t *testing.T) {
	if n := len(TPCHTemplates()); n != 22 {
		t.Fatalf("TPCH templates = %d, want 22", n)
	}
	if n := len(JobLightTemplates()); n != 70 {
		t.Fatalf("job-light templates = %d, want 70", n)
	}
	if n := len(SysbenchTemplates()); n != 14 {
		t.Fatalf("sysbench templates = %d, want 14 (oltp_read_only mix)", n)
	}
	if TemplatesFor("nope") != nil {
		t.Fatalf("unknown benchmark should return nil")
	}
}

// Every template of every benchmark must instantiate, parse, and plan.
func TestAllTemplatesPlanEverywhere(t *testing.T) {
	cases := map[string]*datagen.Dataset{"tpch": tpch, "imdb": imdb, "sysbench": sysb}
	for name, ds := range cases {
		gen := NewGenerator(ds, 42)
		pl := planner.New(ds.Schema, ds.Stats, dbenv.DefaultKnobs())
		for ti, tpl := range TemplatesFor(name) {
			sql, err := gen.Instantiate(tpl)
			if err != nil {
				t.Fatalf("%s template %d: %v", name, ti, err)
			}
			q, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatalf("%s template %d does not parse: %q: %v", name, ti, sql, err)
			}
			if _, err := pl.Plan(q); err != nil {
				t.Fatalf("%s template %d does not plan: %q: %v", name, ti, sql, err)
			}
		}
	}
}

func TestInstantiateAnchorsRanges(t *testing.T) {
	gen := NewGenerator(sysb, 7)
	sql, err := gen.Instantiate("SELECT * FROM sbtest1 WHERE id BETWEEN {sbtest1.id} AND {sbtest1.id+100}")
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(sql, "BETWEEN")
	if i < 0 {
		t.Fatalf("no BETWEEN in %q", sql)
	}
	var lo, hi int64
	if _, err := fmt.Sscanf(sql[i:], "BETWEEN %d AND %d", &lo, &hi); err != nil {
		t.Fatalf("parse bounds from %q: %v", sql, err)
	}
	if hi != lo+100 {
		t.Fatalf("range not anchored at lo+100: %q", sql)
	}
}

func TestInstantiateErrorsOnUnknownColumn(t *testing.T) {
	gen := NewGenerator(sysb, 7)
	if _, err := gen.Instantiate("SELECT * FROM t WHERE x = {ghost.col}"); err == nil {
		t.Fatalf("unknown placeholder should error")
	}
}

func TestGenerateCyclesTemplates(t *testing.T) {
	gen := NewGenerator(sysb, 3)
	sqls, err := gen.Generate([]string{"SELECT * FROM sbtest1 WHERE id = {sbtest1.id}"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sqls) != 5 {
		t.Fatalf("generated %d", len(sqls))
	}
	distinct := make(map[string]bool)
	for _, s := range sqls {
		distinct[s] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("constants not randomized: %v", sqls)
	}
	if _, err := gen.Generate(nil, 3); err == nil {
		t.Fatalf("empty template list should error")
	}
}

func TestCollectSysbench(t *testing.T) {
	envs := dbenv.SampleSet(3, 5)
	lab, err := Collect(context.Background(), sysb, envs, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(lab.Samples) != 90 {
		t.Fatalf("samples = %d, want 90", len(lab.Samples))
	}
	envSeen := map[int]int{}
	for _, s := range lab.Samples {
		if s.Ms <= 0 {
			t.Fatalf("non-positive label: %+v", s.SQL)
		}
		if s.Plan == nil || s.Plan.ActualRows < 0 {
			t.Fatalf("plan not annotated")
		}
		envSeen[s.EnvID]++
	}
	if len(envSeen) != 3 {
		t.Fatalf("environments seen: %v", envSeen)
	}
	// Shuffled: first 10 samples should not be single-env.
	first := map[int]bool{}
	for _, s := range lab.Samples[:10] {
		first[s.EnvID] = true
	}
	if len(first) < 2 {
		t.Fatalf("pool does not look shuffled")
	}
}

func TestScaleAndSplit(t *testing.T) {
	envs := dbenv.SampleSet(2, 6)
	lab, err := Collect(context.Background(), sysb, envs, 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	sub := lab.Scale(10)
	if len(sub) != 10 {
		t.Fatalf("Scale = %d", len(sub))
	}
	if len(lab.Scale(10_000)) != 40 {
		t.Fatalf("oversized scale should clamp")
	}
	train, test := Split(sub, 0.8)
	if len(train) != 8 || len(test) != 2 {
		t.Fatalf("split = %d/%d", len(train), len(test))
	}
	plans, ms := PlansAndLabels(train)
	if len(plans) != 8 || len(ms) != 8 || plans[0] == nil {
		t.Fatalf("PlansAndLabels broken")
	}
}

func TestCollectDeterministic(t *testing.T) {
	envs := dbenv.SampleSet(2, 6)
	a, err := Collect(context.Background(), sysb, envs, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(context.Background(), sysb, envs, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i].SQL != b.Samples[i].SQL || a.Samples[i].Ms != b.Samples[i].Ms {
			t.Fatalf("collection not deterministic at %d", i)
		}
	}
}

func TestOriginalQueries(t *testing.T) {
	qs, err := OriginalQueries(tpch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 22 {
		t.Fatalf("original queries = %d", len(qs))
	}
}

func TestLabelsVaryAcrossEnvironments(t *testing.T) {
	// Figure 1's premise at the workload level: the same statement mix has
	// very different average cost across environments.
	envs := dbenv.SampleSet(5, 21)
	lab, err := Collect(context.Background(), sysb, envs, 50, 13)
	if err != nil {
		t.Fatal(err)
	}
	avg := map[int]float64{}
	cnt := map[int]int{}
	for _, s := range lab.Samples {
		avg[s.EnvID] += s.Ms
		cnt[s.EnvID]++
	}
	min, max := 1e18, 0.0
	for id := range avg {
		v := avg[id] / float64(cnt[id])
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max/min < 1.5 {
		t.Fatalf("environment spread %.2fx too small (min=%v max=%v)", max/min, min, max)
	}
}
