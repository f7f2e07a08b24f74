package catalog_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/catalog"
	"repro/internal/datagen"
)

// encodeStats frames s as a one-section artifact.
func encodeStats(t *testing.T, s *catalog.Stats) []byte {
	t.Helper()
	e := &artifact.Encoder{}
	s.Encode(e)
	var buf bytes.Buffer
	if err := e.WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeStats(t *testing.T, raw []byte) (*catalog.Stats, error) {
	t.Helper()
	d, err := artifact.NewDecoder(bytes.NewReader(raw), 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := catalog.DecodeStats(d)
	if err == nil {
		err = d.Close()
	}
	return s, err
}

// TestStatsRoundTrip: every benchmark's statistics decode to a registry
// equal to the generated one, field for field, that validates against
// the benchmark's schema and encodes to the same bytes again.
func TestStatsRoundTrip(t *testing.T) {
	for _, bench := range datagen.BenchmarkNames() {
		ds, err := datagen.Build(bench, 1)
		if err != nil {
			t.Fatal(err)
		}
		raw := encodeStats(t, ds.Stats)
		got, err := decodeStats(t, raw)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if !reflect.DeepEqual(got, ds.Stats) {
			t.Fatalf("%s: decoded statistics differ from the generated ones", bench)
		}
		if err := got.Validate(ds.Schema); err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if !bytes.Equal(encodeStats(t, got), raw) {
			t.Fatalf("%s: re-encoding the decoded statistics changes the bytes", bench)
		}
	}
}

// TestStatsRejectsMismatch: a repeated table fails the decode with
// ErrMalformed, and Validate rejects statistics for a table or column the
// schema lacks and a schema column without statistics.
func TestStatsRejectsMismatch(t *testing.T) {
	ds, err := datagen.Build("sysbench", 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := ds.Stats.Table("sbtest1")
	col := ts.Columns["id"]

	e := &artifact.Encoder{}
	e.U32(2)
	for i := 0; i < 2; i++ { // sbtest1 twice: name, rows, pages, no columns
		e.Str("sbtest1")
		e.I64(0)
		e.I64(0)
		e.U32(0)
	}
	var buf bytes.Buffer
	if err := e.WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeStats(t, buf.Bytes()); !errors.Is(err, artifact.ErrMalformed) || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("repeated table: err = %v, want ErrMalformed for the repeat", err)
	}

	for _, tc := range []struct {
		name  string
		stats *catalog.Stats
	}{
		{"unknown table", &catalog.Stats{Tables: map[string]*catalog.TableStats{
			"sbtest1": ts,
			"sbtest2": {Columns: map[string]*catalog.ColumnStats{}},
		}}},
		{"unknown column", &catalog.Stats{Tables: map[string]*catalog.TableStats{
			"sbtest1": {RowCount: ts.RowCount, Pages: ts.Pages, Columns: withColumn(ts.Columns, "nope", col)},
		}}},
		{"missing column", &catalog.Stats{Tables: map[string]*catalog.TableStats{
			"sbtest1": {RowCount: ts.RowCount, Pages: ts.Pages, Columns: map[string]*catalog.ColumnStats{"id": col}},
		}}},
	} {
		if err := tc.stats.Validate(ds.Schema); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
}

func withColumn(cols map[string]*catalog.ColumnStats, name string, cs *catalog.ColumnStats) map[string]*catalog.ColumnStats {
	out := map[string]*catalog.ColumnStats{name: cs}
	for k, v := range cols {
		out[k] = v
	}
	return out
}
