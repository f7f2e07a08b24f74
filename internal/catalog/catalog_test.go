package catalog

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntVal(1), IntVal(2), -1},
		{IntVal(2), IntVal(1), 1},
		{IntVal(5), IntVal(5), 0},
		{StrVal("a"), StrVal("b"), -1},
		{StrVal("b"), StrVal("b"), 0},
		{NullVal(), IntVal(0), -1},
		{IntVal(0), NullVal(), 1},
		{NullVal(), NullVal(), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFloatValRoundTrip(t *testing.T) {
	v := FloatVal(12.34)
	if !v.IsFloat || v.I != 1234 {
		t.Fatalf("FloatVal(12.34) = %+v, want IsFloat with I = 1234 (hundredths)", v)
	}
}

func TestValueString(t *testing.T) {
	if NullVal().String() != "NULL" {
		t.Fatal("null render")
	}
	if StrVal("x").String() != "x" {
		t.Fatal("string render")
	}
	if IntVal(7).String() != "7" {
		t.Fatal("int render")
	}
}

func TestTableLookup(t *testing.T) {
	tab := NewTable("t",
		Column{Name: "id", Type: IntCol, Width: 8},
		Column{Name: "name", Type: StringCol, Width: 24},
	)
	if tab.ColIndex("name") != 1 {
		t.Fatalf("ColIndex(name) = %d", tab.ColIndex("name"))
	}
	if tab.ColIndex("missing") != -1 {
		t.Fatalf("missing column should be -1")
	}
	c, ok := tab.Col("id")
	if !ok || c.Type != IntCol {
		t.Fatalf("Col(id) = %v, %v", c, ok)
	}
	if tab.RowWidth() != 32 {
		t.Fatalf("RowWidth = %d, want 32", tab.RowWidth())
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema("test")
	s.AddTable(NewTable("b", Column{Name: "x", Type: IntCol, Width: 8}))
	s.AddTable(NewTable("a", Column{Name: "y", Type: IntCol, Width: 8}))
	s.AddIndex(IndexDef{Name: "a_y_idx", Table: "a", Column: "y"})

	if got := s.TableNames(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("TableNames = %v", got)
	}
	if _, ok := s.IndexOn("a", "y"); !ok {
		t.Fatalf("IndexOn(a,y) not found")
	}
	if _, ok := s.IndexOn("a", "z"); ok {
		t.Fatalf("IndexOn(a,z) should not exist")
	}
	if s.Table("missing") != nil {
		t.Fatalf("missing table should be nil")
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on duplicate table")
		}
	}()
	s := NewSchema("test")
	s.AddTable(NewTable("t"))
	s.AddTable(NewTable("t"))
}

func TestColTypeString(t *testing.T) {
	for ct, want := range map[ColType]string{IntCol: "int", FloatCol: "float", StringCol: "string", DateCol: "date"} {
		if ct.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(ct), ct.String(), want)
		}
	}
}

func uniformColumn(n int, max int64, rng *rand.Rand) []Value {
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = IntVal(rng.Int63n(max))
	}
	return vals
}

func TestBuildColumnStatsBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := uniformColumn(10000, 1000, rng)
	st := BuildColumnStats(vals, rng)
	if st.RowCount != 10000 {
		t.Fatalf("RowCount = %d", st.RowCount)
	}
	if st.DistinctVals < 900 || st.DistinctVals > 1000 {
		t.Fatalf("DistinctVals = %d, want ≈1000", st.DistinctVals)
	}
	if st.Min < 0 || st.Max > 999 {
		t.Fatalf("bounds [%d,%d]", st.Min, st.Max)
	}
	if len(st.HistBounds) != histBuckets+1 {
		t.Fatalf("hist bounds = %d", len(st.HistBounds))
	}
	if len(st.Sample) != sampleSize {
		t.Fatalf("sample = %d", len(st.Sample))
	}
}

func TestBuildColumnStatsEmptyAndNulls(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	st := BuildColumnStats(nil, rng)
	if st.RowCount != 0 {
		t.Fatalf("empty RowCount = %d", st.RowCount)
	}
	vals := []Value{NullVal(), NullVal(), IntVal(5), IntVal(5)}
	st = BuildColumnStats(vals, rng)
	if st.NullFrac != 0.5 {
		t.Fatalf("NullFrac = %v", st.NullFrac)
	}
	if st.DistinctVals != 1 {
		t.Fatalf("DistinctVals = %d", st.DistinctVals)
	}
}

func TestBuildColumnStatsStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := []Value{StrVal("a"), StrVal("b"), StrVal("b"), StrVal("c")}
	st := BuildColumnStats(vals, rng)
	if st.DistinctVals != 3 {
		t.Fatalf("string NDV = %d", st.DistinctVals)
	}
	if len(st.HistBounds) != 0 {
		t.Fatalf("string column should not build histogram")
	}
}

func TestSelectivityEqUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st := BuildColumnStats(uniformColumn(20000, 100, rng), rng)
	sel := st.SelectivityEq(IntVal(42))
	if sel < 0.005 || sel > 0.02 {
		t.Fatalf("SelectivityEq = %v, want ≈0.01", sel)
	}
	if st.SelectivityEq(IntVal(-5)) != 0 {
		t.Fatalf("out-of-range equality should be 0")
	}
}

func TestSelectivityRangeUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := BuildColumnStats(uniformColumn(20000, 1000, rng), rng)
	lo, hi := IntVal(250), IntVal(749)
	sel := st.SelectivityRange(&lo, &hi)
	if sel < 0.45 || sel > 0.55 {
		t.Fatalf("SelectivityRange = %v, want ≈0.5", sel)
	}
	sel = st.SelectivityRange(nil, &hi)
	if sel < 0.70 || sel > 0.80 {
		t.Fatalf("open-low SelectivityRange = %v, want ≈0.75", sel)
	}
	sel = st.SelectivityRange(&lo, nil)
	if sel < 0.70 || sel > 0.80 {
		t.Fatalf("open-high SelectivityRange = %v, want ≈0.75", sel)
	}
}

func TestSelectivityRangeBoundsClamped(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := BuildColumnStats(uniformColumn(500, 100, rng), rng)
		lo, hi := IntVal(loRaw%200), IntVal(hiRaw%200)
		sel := st.SelectivityRange(&lo, &hi)
		return sel >= 0 && sel <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsRegistryAndRandomValue(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewStats()
	s.Tables["t"] = &TableStats{
		RowCount: 100,
		Columns: map[string]*ColumnStats{
			"c": BuildColumnStats(uniformColumn(100, 50, rng), rng),
		},
	}
	if s.Col("t", "c") == nil {
		t.Fatalf("Col lookup failed")
	}
	if s.Col("t", "missing") != nil || s.Col("missing", "c") != nil {
		t.Fatalf("missing lookups should be nil")
	}
	v, ok := s.RandomValue("t", "c", rng)
	if !ok {
		t.Fatalf("RandomValue failed")
	}
	if v.I < 0 || v.I >= 50 {
		t.Fatalf("RandomValue out of domain: %v", v)
	}
	if _, ok := s.RandomValue("missing", "c", rng); ok {
		t.Fatalf("RandomValue on missing table should fail")
	}
}
