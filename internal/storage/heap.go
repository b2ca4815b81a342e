// Package storage implements the in-memory column store and B-tree index
// the executor runs against. A table's heap keeps one typed vector a column
// (catalog.Vector), and rows are built only as the executor reads them.
// Pages are an accounting fiction (there is no real disk): they are counted
// at the table's row width, as a row store lays tuples out, and every
// operator charges logical page reads through an IOCounter, which is what
// lets the repository compare the optimizer's cost estimates with
// "measured" I/O — the substitution for the paper's PostgreSQL storage
// engine (PAPER.md, "This reproduction").
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

// Heap is an append-only store for one table, one typed vector a column.
// Insert copies a row into the vectors, Get and Row build a fresh row, and
// Scan fills one reused buffer. Pages are counted at the table's row width,
// so every IOCounter charge is a row store's.
type Heap struct {
	Table       *catalog.Table
	cols        []catalog.Vector
	rows        int
	rowsPerPage int
}

// NewHeap creates an empty heap for the table.
func NewHeap(t *catalog.Table) *Heap {
	rpp := PageSize / t.RowWidthBytes()
	if rpp < 1 {
		rpp = 1
	}
	return &Heap{Table: t, cols: make([]catalog.Vector, len(t.Columns)), rowsPerPage: rpp}
}

// Insert appends a row and returns its row id. The row must match the
// table's column count and each value its column's type (admits); a refused
// row stores nothing.
func (h *Heap) Insert(r catalog.Row) (int64, error) {
	if err := h.check(r); err != nil {
		return 0, err
	}
	return h.append(r), nil
}

// append stores a checked row and returns its row id.
func (h *Heap) append(r catalog.Row) int64 {
	for ci := range h.cols {
		h.cols[ci].Append(r[ci])
	}
	h.rows++
	return int64(h.rows - 1)
}

// check reports why the heap would refuse the row, or nil.
func (h *Heap) check(r catalog.Row) error {
	if len(r) != len(h.cols) {
		return fmt.Errorf("storage: table %s expects %d columns, got %d",
			h.Table.Name, len(h.cols), len(r))
	}
	for ci, col := range h.Table.Columns {
		if !admits(col.Type, r[ci].Kind) {
			return fmt.Errorf("storage: table %s column %s (%s) cannot hold %s",
				h.Table.Name, col.Name, col.Type, r[ci])
		}
	}
	return nil
}

// admits reports whether a column of the declared type stores a value of
// the kind: NULL fits any column, a number (int or float, kept as given)
// any but a TEXT one, and TEXT a TEXT or an untyped column.
func admits(col, v catalog.Kind) bool {
	switch v {
	case catalog.KindNull:
		return true
	case catalog.KindInt, catalog.KindFloat:
		return col != catalog.KindString
	case catalog.KindString:
		return col == catalog.KindString || col == catalog.KindNull
	}
	return false
}

// Grow makes room for n more rows, so a table of known size is allocated once.
func (h *Heap) Grow(n int) {
	for ci := range h.cols {
		h.cols[ci].Grow(n)
	}
}

// RowCount returns the number of stored rows.
func (h *Heap) RowCount() int64 { return int64(h.rows) }

// Pages returns the heap footprint in pages.
func (h *Heap) Pages() int64 {
	n := int64(h.rows)
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
	return h.Row(id)
}

// Row builds a fresh copy of one row without charging I/O.
func (h *Heap) Row(id int64) catalog.Row {
	return h.fill(make(catalog.Row, len(h.cols)), int(id))
}

// fill writes row i's values into r and returns it.
func (h *Heap) fill(r catalog.Row, i int) catalog.Row {
	for ci := range h.cols {
		r[ci] = h.cols[ci].At(i)
	}
	return r
}

// Scan iterates all rows in physical order, charging a sequential page
// read as it enters each page. The callback may return false to stop early
// (pages read so far remain charged). The row passed to fn is one buffer
// refilled for every row: it is valid only during the call, and a caller
// that keeps a row clones it.
func (h *Heap) Scan(io *IOCounter, fn func(id int64, r catalog.Row) bool) {
	buf := make(catalog.Row, len(h.cols))
	for i := range h.rows {
		if io != nil {
			if i%h.rowsPerPage == 0 {
				io.SeqPages++
			}
			io.TuplesRead++
		}
		if !fn(int64(i), h.fill(buf, i)) {
			return
		}
	}
	if h.rows == 0 && io != nil {
		io.SeqPages++ // even an empty table costs one page visit
	}
}

// Columns returns the column vectors, in the table's column order
// (read-only contract; used by ANALYZE and index builds, which account
// their own costs).
func (h *Heap) Columns() []catalog.Vector { return h.cols }
