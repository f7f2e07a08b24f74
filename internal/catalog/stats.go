package catalog

import (
	"math"
	"math/rand"
	"slices"
	"sort"
)

// ColumnStats summarizes one column for the cardinality estimator: row
// count, distinct count, min/max, null fraction, and an equi-depth
// histogram over numeric values. String columns keep a sorted sample of
// distinct values instead of a histogram.
type ColumnStats struct {
	RowCount     int64
	DistinctVals int64
	NullFrac     float64
	Min, Max     int64 // numeric domain (Value.I encoding)

	// HistBounds holds B+1 boundaries of an equi-depth histogram; each of
	// the B buckets covers RowCount/B rows. Empty for string columns.
	HistBounds []int64

	// Sample holds up to sampleSize representative values; it doubles as
	// the column's entry in the paper's data abstract R, which Algorithm 1
	// draws from when filling simplified templates.
	Sample []Value
}

const (
	histBuckets = 32
	sampleSize  = 64
)

// BuildColumnStats scans the column values and derives statistics.
// The rng drives reservoir sampling so stats are deterministic per seed.
func BuildColumnStats(vals []Value, rng *rand.Rand) *ColumnStats {
	st := &ColumnStats{RowCount: int64(len(vals))}
	if len(vals) == 0 {
		return st
	}
	var nulls int64
	numeric := make([]int64, 0, len(vals))
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
	if len(numeric) == 0 {
		return st
	}
	// Sorted, the distinct values are the starts of the runs of equal ones.
	slices.Sort(numeric)
	st.DistinctVals = 1
	for i := 1; i < len(numeric); i++ {
		if numeric[i] != numeric[i-1] {
			st.DistinctVals++
		}
	}
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

// SelectivityEq estimates the fraction of rows with column == v.
func (st *ColumnStats) SelectivityEq(v Value) float64 {
	if st.RowCount == 0 {
		return 0
	}
	if st.DistinctVals <= 0 {
		return 1
	}
	sel := (1 - st.NullFrac) / float64(st.DistinctVals)
	if !v.IsStr && len(st.HistBounds) > 0 && (v.I < st.Min || v.I > st.Max) {
		return 0
	}
	return sel
}

// SelectivityRange estimates the fraction of rows with lo ≤ column ≤ hi.
// Either bound may be nil (open interval). String columns fall back to a
// fixed default selectivity, mirroring PostgreSQL's DEFAULT_RANGE_SEL.
func (st *ColumnStats) SelectivityRange(lo, hi *Value) float64 {
	const defaultRangeSel = 0.33
	if st.RowCount == 0 {
		return 0
	}
	if len(st.HistBounds) < 2 {
		return defaultRangeSel
	}
	frac := func(v int64) float64 { // fraction of rows strictly below v
		bounds := st.HistBounds
		b := len(bounds) - 1
		if v <= bounds[0] {
			return 0
		}
		if v >= bounds[b] {
			return 1
		}
		i := sort.Search(b, func(k int) bool { return bounds[k+1] >= v })
		lo64, hi64 := bounds[i], bounds[i+1]
		within := 0.5
		if hi64 > lo64 {
			within = float64(v-lo64) / float64(hi64-lo64)
		}
		return (float64(i) + within) / float64(b)
	}
	loF, hiF := 0.0, 1.0
	if lo != nil && !lo.IsStr {
		loF = frac(lo.I)
	}
	if hi != nil && !hi.IsStr {
		hiF = frac(hi.I + 1)
	}
	sel := (hiF - loF) * (1 - st.NullFrac)
	return math.Max(0, math.Min(1, sel))
}

// TableStats aggregates per-column statistics plus the physical sizing the
// cost models need.
type TableStats struct {
	RowCount int64
	Pages    int64 // heap pages, derived from row width and page size
	Columns  map[string]*ColumnStats
}

// Stats is the statistics registry for a whole schema, keyed by table name.
// It also serves as the data abstract R of Algorithm 1: RandomValue draws a
// plausible constant for (table, column) predicates.
type Stats struct {
	Tables map[string]*TableStats
}

// NewStats allocates an empty registry.
func NewStats() *Stats { return &Stats{Tables: make(map[string]*TableStats)} }

// Table returns stats for the named table, or nil.
func (s *Stats) Table(name string) *TableStats { return s.Tables[name] }

// Col returns the stats for table.column, or nil.
func (s *Stats) Col(table, column string) *ColumnStats {
	ts := s.Tables[table]
	if ts == nil {
		return nil
	}
	return ts.Columns[column]
}

// RandomValue draws a representative constant for (table, column) from the
// stored sample — the data-abstract lookup used by Algorithm 1 line 12.
func (s *Stats) RandomValue(table, column string, rng *rand.Rand) (Value, bool) {
	cs := s.Col(table, column)
	if cs == nil || len(cs.Sample) == 0 {
		return Value{}, false
	}
	return cs.Sample[rng.Intn(len(cs.Sample))], true
}
