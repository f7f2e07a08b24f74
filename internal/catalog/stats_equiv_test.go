package catalog_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

// TestColumnStatsMatchMapDistinct builds the statistics of every column of
// the three benchmarks with BuildColumnStats, which counts distinct
// integers from the sorted column, and with refBuildColumnStats, which
// counts them in a map, each from an rng of the same seed. Every field of
// every column must be equal.
func TestColumnStatsMatchMapDistinct(t *testing.T) {
	for _, bench := range datagen.BenchmarkNames() {
		ds, err := datagen.Build(bench, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, h := range ds.DB.Heaps {
			for ci, col := range h.Table.Columns {
				vals := make([]catalog.Value, h.NumRows())
				for r := range vals {
					vals[r] = h.Get(r)[ci]
				}
				seed := int64(len(name)*31 + ci)
				got := catalog.BuildColumnStats(vals, rand.New(rand.NewSource(seed)))
				want := refBuildColumnStats(vals, rand.New(rand.NewSource(seed)))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s.%s: stats %+v, reference %+v", bench, name, col.Name, got, want)
				}
			}
		}
	}
}

// refBuildColumnStats is BuildColumnStats as it was before distinct
// integers were counted from the sorted column: verbatim apart from the
// catalog qualifiers and the two constants it read.
func refBuildColumnStats(vals []catalog.Value, rng *rand.Rand) *catalog.ColumnStats {
	const (
		histBuckets = 32
		sampleSize  = 64
	)
	st := &catalog.ColumnStats{RowCount: int64(len(vals))}
	if len(vals) == 0 {
		return st
	}
	var nulls int64
	numeric := make([]int64, 0, len(vals))
	distinct := make(map[int64]struct{})
	distinctStr := make(map[string]struct{})
	isStr := false
	for _, v := range vals {
		if v.Null {
			nulls++
			continue
		}
		if v.IsStr {
			isStr = true
			distinctStr[v.S] = struct{}{}
			continue
		}
		numeric = append(numeric, v.I)
		distinct[v.I] = struct{}{}
	}
	st.NullFrac = float64(nulls) / float64(len(vals))

	// Reservoir-sample representative values.
	for i, v := range vals {
		if v.Null {
			continue
		}
		if len(st.Sample) < sampleSize {
			st.Sample = append(st.Sample, v)
		} else if j := rng.Intn(i + 1); j < sampleSize {
			st.Sample[j] = v
		}
	}
	sort.Slice(st.Sample, func(i, j int) bool { return st.Sample[i].Compare(st.Sample[j]) < 0 })

	if isStr {
		st.DistinctVals = int64(len(distinctStr))
		return st
	}
	st.DistinctVals = int64(len(distinct))
	if len(numeric) == 0 {
		return st
	}
	sort.Slice(numeric, func(i, j int) bool { return numeric[i] < numeric[j] })
	st.Min, st.Max = numeric[0], numeric[len(numeric)-1]

	b := histBuckets
	if len(numeric) < b {
		b = len(numeric)
	}
	st.HistBounds = make([]int64, 0, b+1)
	for i := 0; i <= b; i++ {
		idx := i * (len(numeric) - 1) / b
		st.HistBounds = append(st.HistBounds, numeric[idx])
	}
	return st
}
