// Package storage implements the physical layer of the engine substrate:
// page-structured heap tables and B+tree secondary indexes. It deliberately
// knows nothing about cost — it only exposes the physical quantities
// (pages, fanout, heights) that internal/engine counts and internal/dbenv
// turns into simulated time.
package storage

import (
	"fmt"

	"repro/internal/catalog"
)

// PageSize is the heap/index page size in bytes, matching PostgreSQL's 8KB
// default so page-count arithmetic lines up with the analytic cost model.
const PageSize = 8192

// pageHeader approximates per-page bookkeeping overhead.
const pageHeader = 192

// Heap is an append-only row store organized into fixed-size logical pages.
// RowIDs are dense offsets, so page accounting is pure arithmetic; that
// keeps the executor's page counts exact without materializing page
// structures.
type Heap struct {
	Table *catalog.Table

	rows        []catalog.Row
	rowsPerPage int
}

// NewHeap creates an empty heap for the given table descriptor.
func NewHeap(t *catalog.Table) *Heap {
	w := t.RowWidth()
	if w <= 0 {
		w = 8
	}
	rpp := (PageSize - pageHeader) / w
	if rpp < 1 {
		rpp = 1
	}
	return &Heap{Table: t, rowsPerPage: rpp}
}

// Append stores a row and returns its RowID. The row must match the table
// arity; this is checked because generators are the only writers and an
// arity bug would silently corrupt every downstream experiment.
func (h *Heap) Append(r catalog.Row) int {
	if len(r) != len(h.Table.Columns) {
		panic(fmt.Sprintf("storage: row arity %d != table %q arity %d", len(r), h.Table.Name, len(h.Table.Columns)))
	}
	h.rows = append(h.rows, r)
	return len(h.rows) - 1
}

// Get returns the row at id. It panics on out-of-range ids — callers derive
// ids from indexes built over this same heap, so a miss is a program bug.
func (h *Heap) Get(id int) catalog.Row { return h.rows[id] }

// Rows returns every stored row, indexed by RowID. The slice is the heap's
// own: callers read it and never write it.
func (h *Heap) Rows() []catalog.Row { return h.rows }

// NumRows returns the stored row count.
func (h *Heap) NumRows() int { return len(h.rows) }

// NumPages returns the heap size in pages (≥1 for a non-empty heap).
func (h *Heap) NumPages() int64 {
	if len(h.rows) == 0 {
		return 0
	}
	return int64((len(h.rows) + h.rowsPerPage - 1) / h.rowsPerPage)
}

// Database binds heaps and indexes for one schema instance.
type Database struct {
	Schema  *catalog.Schema
	Heaps   map[string]*Heap
	Indexes map[string]*BTree // keyed by index name
}

// NewDatabase allocates heaps for every table in the schema. Indexes are
// built explicitly via BuildIndexes once data is loaded.
func NewDatabase(s *catalog.Schema) *Database {
	db := &Database{Schema: s, Heaps: make(map[string]*Heap), Indexes: make(map[string]*BTree)}
	for name, t := range s.Tables {
		db.Heaps[name] = NewHeap(t)
	}
	return db
}

// Heap returns the heap for the named table, or nil.
func (db *Database) Heap(table string) *Heap { return db.Heaps[table] }

// BuildIndexes materializes every index definition in the schema from the
// loaded heap data. Call after data loading.
func (db *Database) BuildIndexes() {
	for _, def := range db.Schema.Indexes {
		h := db.Heaps[def.Table]
		if h == nil {
			panic(fmt.Sprintf("storage: index %q references missing table %q", def.Name, def.Table))
		}
		ci := h.Table.ColIndex(def.Column)
		if ci < 0 {
			panic(fmt.Sprintf("storage: index %q references missing column %q", def.Name, def.Column))
		}
		bt := NewBTree()
		for id := 0; id < h.NumRows(); id++ {
			bt.Insert(h.Get(id)[ci], id)
		}
		db.Indexes[def.Name] = bt
	}
}

// Index returns the named index, or nil.
func (db *Database) Index(name string) *BTree { return db.Indexes[name] }
