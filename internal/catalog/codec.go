package catalog

import (
	"fmt"
	"sort"

	"repro/internal/artifact"
)

// Encode writes the registry as one section of a model artifact: tables in
// name order, each table's columns in name order, so equal statistics
// always encode to equal bytes.
func (s *Stats) Encode(e *artifact.Encoder) {
	tables := sortedKeys(s.Tables)
	e.U32(uint32(len(tables)))
	for _, name := range tables {
		ts := s.Tables[name]
		e.Str(name)
		e.I64(ts.RowCount)
		e.I64(ts.Pages)
		cols := sortedKeys(ts.Columns)
		e.U32(uint32(len(cols)))
		for _, col := range cols {
			e.Str(col)
			ts.Columns[col].encode(e)
		}
	}
}

func (cs *ColumnStats) encode(e *artifact.Encoder) {
	e.I64(cs.RowCount)
	e.I64(cs.DistinctVals)
	e.F64(cs.NullFrac)
	e.I64(cs.Min)
	e.I64(cs.Max)
	e.U32(uint32(len(cs.HistBounds)))
	for _, b := range cs.HistBounds {
		e.I64(b)
	}
	e.U32(uint32(len(cs.Sample)))
	for _, v := range cs.Sample {
		e.Bool(v.Null)
		e.Bool(v.IsStr)
		e.Bool(v.IsFloat)
		switch {
		case v.Null:
		case v.IsStr:
			e.Str(v.S)
		default:
			e.I64(v.I)
		}
	}
}

// Minimum encoded sizes, which bound what a count may claim before it
// sizes a map or slice: a table is its name's length prefix, two int64s
// and a column count; a column is its name's length prefix, five 8-byte
// fields and two counts; a sample value is its three flag bytes.
const (
	minTableBytes  = 4 + 8 + 8 + 4
	minColumnBytes = 4 + 5*8 + 4 + 4
	minValueBytes  = 3
)

// DecodeStats reads a registry written by Stats.Encode. A repeated table
// or column fails the decode with artifact.ErrMalformed; whether the
// names match a schema is Validate's question.
func DecodeStats(d *artifact.Decoder) (*Stats, error) {
	nTables := d.Count(minTableBytes, "statistics table count")
	if err := d.Err(); err != nil {
		return nil, err
	}
	s := &Stats{Tables: make(map[string]*TableStats, nTables)}
	for i := 0; i < nTables; i++ {
		name := d.Str()
		ts := &TableStats{RowCount: d.I64(), Pages: d.I64()}
		nCols := d.Count(minColumnBytes, "column statistics count")
		if err := d.Err(); err != nil {
			return nil, err
		}
		ts.Columns = make(map[string]*ColumnStats, nCols)
		for j := 0; j < nCols; j++ {
			col := d.Str()
			cs := decodeColumnStats(d)
			if err := d.Err(); err != nil {
				return nil, err
			}
			if ts.Columns[col] != nil {
				return nil, fmt.Errorf("%w: statistics for %s.%s twice", artifact.ErrMalformed, name, col)
			}
			ts.Columns[col] = cs
		}
		if s.Tables[name] != nil {
			return nil, fmt.Errorf("%w: statistics for table %s twice", artifact.ErrMalformed, name)
		}
		s.Tables[name] = ts
	}
	return s, nil
}

func decodeColumnStats(d *artifact.Decoder) *ColumnStats {
	cs := &ColumnStats{
		RowCount:     d.I64(),
		DistinctVals: d.I64(),
		NullFrac:     d.F64(),
		Min:          d.I64(),
		Max:          d.I64(),
	}
	if n := d.Count(8, "histogram bound count"); n > 0 {
		cs.HistBounds = make([]int64, n)
		for i := range cs.HistBounds {
			cs.HistBounds[i] = d.I64()
		}
	}
	if n := d.Count(minValueBytes, "sample count"); n > 0 {
		cs.Sample = make([]Value, n)
		for i := range cs.Sample {
			v := &cs.Sample[i]
			v.Null, v.IsStr, v.IsFloat = d.Bool(), d.Bool(), d.Bool()
			switch {
			case v.Null:
			case v.IsStr:
				v.S = d.Str()
			default:
				v.I = d.I64()
			}
		}
	}
	return cs
}

// Validate checks that the registry describes exactly the schema's
// columns: statistics for every column of every table, and for nothing
// else.
func (s *Stats) Validate(schema *Schema) error {
	for _, name := range sortedKeys(s.Tables) {
		t := schema.Table(name)
		if t == nil {
			return fmt.Errorf("catalog: statistics for table %s, which schema %s does not have", name, schema.Name)
		}
		for _, col := range sortedKeys(s.Tables[name].Columns) {
			if t.ColIndex(col) < 0 {
				return fmt.Errorf("catalog: statistics for column %s.%s, which schema %s does not have", name, col, schema.Name)
			}
		}
	}
	for _, name := range schema.TableNames() {
		for _, col := range schema.Tables[name].Columns {
			if s.Col(name, col.Name) == nil {
				return fmt.Errorf("catalog: no statistics for %s.%s", name, col.Name)
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
