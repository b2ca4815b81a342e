package storage

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/stats"
)

// Store is the full physical database: one heap per table plus materialized
// B-tree indexes, and the statistics derived from the data. It plays the
// role of PostgreSQL's storage layer in the paper's architecture.
type Store struct {
	Schema  *catalog.Schema
	heaps   map[string]*Heap
	indexes map[string]*BTree // keyed by canonical index key
	Stats   *stats.Catalog
}

// NewStore creates an empty store for a schema with a heap per table.
func NewStore(schema *catalog.Schema) *Store {
	s := &Store{
		Schema:  schema,
		heaps:   make(map[string]*Heap),
		indexes: make(map[string]*BTree),
		Stats:   stats.NewCatalog(),
	}
	for _, t := range schema.Tables() {
		s.heaps[strings.ToLower(t.Name)] = NewHeap(t)
	}
	return s
}

// Heap returns the heap for the named table, or nil.
func (s *Store) Heap(table string) *Heap { return s.heaps[strings.ToLower(table)] }

// Load bulk-loads rows into a table's heap without index maintenance. It
// checks every row as Heap.Insert does before storing any, and names the
// first bad row.
func (s *Store) Load(table string, rows []catalog.Row) error {
	h := s.Heap(table)
	if h == nil {
		return fmt.Errorf("storage: unknown table %q", table)
	}
	for i, r := range rows {
		if err := h.check(r); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	h.Grow(len(rows))
	for _, r := range rows {
		h.append(r)
	}
	return nil
}

// Analyze refreshes statistics for every table (or the named tables only).
// The refresh is copy-on-write: a fresh catalog is built and swapped in, so
// readers holding the previous *stats.Catalog (pinned engine generations
// mid-evaluation) never observe a map mutating under them.
func (s *Store) Analyze(tables ...string) error {
	targets := tables
	if len(targets) == 0 {
		for _, t := range s.Schema.Tables() {
			targets = append(targets, t.Name)
		}
	}
	fresh := stats.NewCatalog()
	for name, ts := range s.Stats.Tables {
		fresh.Tables[name] = ts
	}
	for _, name := range targets {
		t := s.Schema.Table(name)
		if t == nil {
			return fmt.Errorf("storage: unknown table %q", name)
		}
		ts, err := stats.Analyze(t, s.Heap(name).Columns(), PageSize)
		if err != nil {
			return err
		}
		fresh.Put(t.Name, ts)
	}
	s.Stats = fresh
	return nil
}

// CreateIndex materializes a B-tree index and registers it. The returned
// counter reports the build cost (heap scan + leaf writes). Creating an
// index whose canonical key already exists is an error.
func (s *Store) CreateIndex(name, table string, columns []string) (*BTree, IOCounter, error) {
	var io IOCounter
	h := s.Heap(table)
	if h == nil {
		return nil, io, fmt.Errorf("storage: unknown table %q", table)
	}
	probe := &catalog.Index{Name: name, Table: table, Columns: columns}
	if _, dup := s.indexes[probe.Key()]; dup {
		return nil, io, fmt.Errorf("storage: index on %s already exists", probe.Key())
	}
	bt, err := BuildIndex(name, h, columns, &io)
	if err != nil {
		return nil, io, err
	}
	s.indexes[bt.Meta.Key()] = bt
	return bt, io, nil
}

// InsertRow inserts one row into the table's heap and maintains every
// materialized index on that table, charging the index descents to the
// returned counter.
func (s *Store) InsertRow(table string, r catalog.Row) (int64, IOCounter, error) {
	var io IOCounter
	h := s.Heap(table)
	if h == nil {
		return 0, io, fmt.Errorf("storage: unknown table %q", table)
	}
	id, err := h.Insert(r)
	if err != nil {
		return 0, io, err
	}
	lt := strings.ToLower(table)
	for _, bt := range s.indexes {
		if strings.ToLower(bt.Meta.Table) != lt {
			continue
		}
		k := bt.KeyFromRow(h.Table, r)
		bt.Insert(k, id)
		io.RandomPages += int64(bt.Height())
	}
	return id, io, nil
}

// DropIndex removes a materialized index by canonical key.
func (s *Store) DropIndex(key string) bool {
	if _, ok := s.indexes[key]; !ok {
		return false
	}
	delete(s.indexes, key)
	return true
}

// Index returns the materialized index with the canonical key, or nil.
func (s *Store) Index(key string) *BTree { return s.indexes[strings.ToLower(key)] }

// Indexes lists all materialized indexes, in key order.
func (s *Store) Indexes() []*BTree {
	out := make([]*BTree, 0, len(s.indexes))
	for _, bt := range s.indexes {
		out = append(out, bt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.Key() < out[j].Meta.Key() })
	return out
}

// MaterializedConfiguration returns the real (non-hypothetical) design
// currently in the store, in key order: every reader of the live design
// lists it the same way.
func (s *Store) MaterializedConfiguration() *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	for _, bt := range s.Indexes() {
		cfg.Indexes = append(cfg.Indexes, bt.Meta)
	}
	return cfg
}
