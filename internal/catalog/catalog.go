// Package catalog defines schemas, tables, column types, and the per-column
// statistics that the planner's cardinality estimator and the paper's data
// abstract R (Algorithm 1) are built from.
//
// The catalog is intentionally a plain in-memory structure: the engine
// substrate (internal/storage, internal/engine) owns the data; the catalog
// owns the metadata describing it.
package catalog

import (
	"fmt"
	"sort"
	"strings"
)

// ColType enumerates the column types supported by the engine substrate.
type ColType int

const (
	// IntCol is a 64-bit integer column.
	IntCol ColType = iota
	// FloatCol is a float64 column (stored scaled in Value.I for ordering;
	// see Value).
	FloatCol
	// StringCol is a variable-length string column.
	StringCol
	// DateCol is a day-granularity date stored as days since epoch.
	DateCol
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case IntCol:
		return "int"
	case FloatCol:
		return "float"
	case StringCol:
		return "string"
	case DateCol:
		return "date"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

// Value is a dynamically typed cell. Numeric kinds (int, float, date) store
// their payload in I — floats are scaled by 100 so every comparison is an
// integer comparison, which keeps the executor's hot loop allocation-free.
// Strings live in S.
type Value struct {
	I     int64
	S     string
	IsStr bool
	Null  bool
	// IsFloat marks values produced by FloatVal (I holds value×100); the
	// planner uses it to coerce raw integer literals when they are compared
	// against float columns.
	IsFloat bool
}

// IntVal builds an integer Value.
func IntVal(v int64) Value { return Value{I: v} }

// FloatVal builds a float Value with two fixed decimals of precision.
func FloatVal(v float64) Value { return Value{I: int64(v * 100), IsFloat: true} }

// StrVal builds a string Value.
func StrVal(s string) Value { return Value{S: s, IsStr: true} }

// NullVal builds a NULL Value.
func NullVal() Value { return Value{Null: true} }

// Float interprets a numeric Value scaled back to float64.
func (v Value) Float() float64 { return float64(v.I) / 100 }

// Compare orders two values: -1, 0, +1. NULLs sort first; strings compare
// lexicographically; numerics compare on I.
func (v Value) Compare(o Value) int {
	switch {
	case v.Null && o.Null:
		return 0
	case v.Null:
		return -1
	case o.Null:
		return 1
	}
	if v.IsStr || o.IsStr {
		return strings.Compare(v.S, o.S)
	}
	switch {
	case v.I < o.I:
		return -1
	case v.I > o.I:
		return 1
	}
	return 0
}

// String renders the value for debugging and EXPLAIN output.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	if v.IsStr {
		return v.S
	}
	return fmt.Sprintf("%d", v.I)
}

// Row is one tuple.
type Row []Value

// Column describes one column of a table.
type Column struct {
	Name string
	Type ColType
	// Width is the average stored width in bytes, used by the cost models
	// and the page layout.
	Width int
}

// ColInfo is one column qualified by its table's name — the shape plan
// nodes describe their output schema in.
type ColInfo struct {
	Table  string
	Column string
	Type   ColType
	Width  int
}

// Table describes one relation: columns plus optional secondary indexes.
type Table struct {
	Name    string
	Columns []Column

	colIdx   map[string]int
	colInfos []ColInfo
}

// NewTable builds a table descriptor, its column lookup map and its
// qualified column list.
func NewTable(name string, cols ...Column) *Table {
	t := &Table{
		Name: name, Columns: cols,
		colIdx:   make(map[string]int, len(cols)),
		colInfos: make([]ColInfo, len(cols)),
	}
	for i, c := range cols {
		t.colIdx[c.Name] = i
		t.colInfos[i] = ColInfo{Table: name, Column: c.Name, Type: c.Type, Width: c.Width}
	}
	return t
}

// ColInfos returns the table's columns qualified by its name, in column
// order. The slice is built once and shared by every plan that scans the
// table: callers must not modify it.
func (t *Table) ColInfos() []ColInfo { return t.colInfos }

// ColIndex returns the ordinal of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// Col returns the column descriptor by name.
func (t *Table) Col(name string) (Column, bool) {
	i := t.ColIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return t.Columns[i], true
}

// RowWidth returns the total average tuple width in bytes.
func (t *Table) RowWidth() int {
	var w int
	for _, c := range t.Columns {
		w += c.Width
	}
	return w
}

// IndexDef declares a secondary index over a single column.
type IndexDef struct {
	Name   string
	Table  string
	Column string
	Unique bool
}

// Schema is a named collection of tables and index definitions.
type Schema struct {
	Name    string
	Tables  map[string]*Table
	Indexes []IndexDef
}

// NewSchema builds an empty schema.
func NewSchema(name string) *Schema {
	return &Schema{Name: name, Tables: make(map[string]*Table)}
}

// AddTable registers a table; it panics on duplicates (schema construction
// is programmer-controlled, not user input).
func (s *Schema) AddTable(t *Table) {
	if _, dup := s.Tables[t.Name]; dup {
		panic(fmt.Sprintf("catalog: duplicate table %q", t.Name))
	}
	s.Tables[t.Name] = t
}

// AddIndex registers a secondary index definition.
func (s *Schema) AddIndex(def IndexDef) {
	s.Indexes = append(s.Indexes, def)
}

// Table returns the named table or nil.
func (s *Schema) Table(name string) *Table { return s.Tables[name] }

// IndexOn returns the first index on (table, column), if any.
func (s *Schema) IndexOn(table, column string) (IndexDef, bool) {
	for _, ix := range s.Indexes {
		if ix.Table == table && ix.Column == column {
			return ix, true
		}
	}
	return IndexDef{}, false
}

// TableNames returns the sorted table names (stable iteration for encoding
// one-hots and deterministic tests).
func (s *Schema) TableNames() []string {
	names := make([]string, 0, len(s.Tables))
	for n := range s.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// IndexNames returns the sorted index names.
func (s *Schema) IndexNames() []string {
	names := make([]string, 0, len(s.Indexes))
	for _, ix := range s.Indexes {
		names = append(names, ix.Name)
	}
	sort.Strings(names)
	return names
}
