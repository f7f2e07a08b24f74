package snapshot

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/planner"
	"repro/internal/sqlparse"
)

func BenchmarkFitSnapshot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]OpSample, 2000)
	for i := range samples {
		op := planner.OpType(rng.Intn(int(planner.NumOpTypes)))
		n1 := float64(1 + rng.Intn(100_000))
		samples[i] = OpSample{Op: op, N1: n1, N2: float64(1 + rng.Intn(1000)), Ms: n1 * 0.001}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTemplateGeneration(b *testing.B) {
	g := NewTemplateGen(tpch.Schema, tpch.Stats)
	originals := tpchOriginalQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqls := g.Generate(originals, 2, int64(i))
		if len(sqls) == 0 {
			b.Fatal("no queries")
		}
	}
}

func BenchmarkSnapshotFeatures(b *testing.B) {
	builder := NewBuilder(tpch, quietEnv())
	res, err := builder.FromQueriesCtx(context.Background(), []string{"SELECT * FROM lineitem WHERE l_quantity < 30"})
	if err != nil {
		b.Fatal(err)
	}
	pl := planner.New(tpch.Schema, tpch.Stats, quietEnv().Knobs)
	node, _ := pl.Plan(sqlparse.MustParse("SELECT * FROM lineitem WHERE l_quantity < 5"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Snapshot.Features(node)
	}
}
