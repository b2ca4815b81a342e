// Package storage implements the in-memory paged row store and B-tree index
// the executor runs against. Pages are an accounting fiction (there is no
// real disk), but every operator charges logical page reads through an
// IOCounter, which is what lets the repository compare the optimizer's cost
// estimates with "measured" I/O — the substitution for the paper's
// PostgreSQL storage engine described in DESIGN.md §4.
package storage

import (
	"fmt"

	"repro/internal/catalog"
)

// PageSize is the heap/index page capacity in bytes (PostgreSQL's default).
const PageSize = 8192

// IOCounter accumulates logical I/O charged by scans and index probes.
// Sequential and random page reads are tracked separately because the cost
// model prices them differently.
type IOCounter struct {
	SeqPages    int64
	RandomPages int64
	TuplesRead  int64
}

// Add accumulates another counter into this one.
func (c *IOCounter) Add(o IOCounter) {
	c.SeqPages += o.SeqPages
	c.RandomPages += o.RandomPages
	c.TuplesRead += o.TuplesRead
}

// Total returns all page reads regardless of access pattern.
func (c *IOCounter) Total() int64 { return c.SeqPages + c.RandomPages }

// String renders the counter compactly.
func (c *IOCounter) String() string {
	return fmt.Sprintf("io{seq=%d rand=%d tuples=%d}", c.SeqPages, c.RandomPages, c.TuplesRead)
}

// Heap is an append-only paged row store for one table.
type Heap struct {
	Table       *catalog.Table
	rows        []catalog.Row
	rowsPerPage int
}

// NewHeap creates an empty heap for the table.
func NewHeap(t *catalog.Table) *Heap {
	rpp := PageSize / t.RowWidthBytes()
	if rpp < 1 {
		rpp = 1
	}
	return &Heap{Table: t, rowsPerPage: rpp}
}

// Insert appends a row and returns its row id. The row must match the
// table's column count.
func (h *Heap) Insert(r catalog.Row) (int64, error) {
	if len(r) != len(h.Table.Columns) {
		return 0, fmt.Errorf("storage: table %s expects %d columns, got %d",
			h.Table.Name, len(h.Table.Columns), len(r))
	}
	h.rows = append(h.rows, r)
	return int64(len(h.rows) - 1), nil
}

// BulkLoad appends many rows without per-row validation (generator path).
func (h *Heap) BulkLoad(rows []catalog.Row) {
	h.rows = append(h.rows, rows...)
}

// RowCount returns the number of stored rows.
func (h *Heap) RowCount() int64 { return int64(len(h.rows)) }

// Pages returns the heap footprint in pages.
func (h *Heap) Pages() int64 {
	n := int64(len(h.rows))
	if n == 0 {
		return 1
	}
	return (n + int64(h.rowsPerPage) - 1) / int64(h.rowsPerPage)
}

// Get fetches one row by id and charges a random page read. Fetching a row
// id out of range panics: that is a bug in an access path, not user error.
func (h *Heap) Get(id int64, io *IOCounter) catalog.Row {
	if io != nil {
		io.RandomPages++
		io.TuplesRead++
	}
	return h.rows[id]
}

// PageOf returns the page number holding the row id.
func (h *Heap) PageOf(id int64) int64 { return id / int64(h.rowsPerPage) }

// Scan iterates all rows in physical order, charging sequential page reads.
// The callback may return false to stop early (pages read so far remain
// charged).
func (h *Heap) Scan(io *IOCounter, fn func(id int64, r catalog.Row) bool) {
	lastPage := int64(-1)
	for i, r := range h.rows {
		id := int64(i)
		if io != nil {
			if p := h.PageOf(id); p != lastPage {
				io.SeqPages++
				lastPage = p
			}
			io.TuplesRead++
		}
		if !fn(id, r) {
			return
		}
	}
	if len(h.rows) == 0 && io != nil {
		io.SeqPages++ // even an empty table costs one page visit
	}
}

// Rows returns the underlying row slice (read-only contract; used by
// ANALYZE and index builds which account their own costs).
func (h *Heap) Rows() []catalog.Row { return h.rows }
