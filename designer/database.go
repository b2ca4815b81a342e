package designer

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// NewFromDDL builds an empty database from a CREATE TABLE / CREATE INDEX
// script and opens a designer over it — the portability surface of the
// paper's title: the tool works against any relational schema, not just
// the SDSS demo dataset.
//
// Load rows with Insert and call Analyze before asking for advice. Options
// select the cost backend (WithBackend).
func NewFromDDL(ddl string, opts ...Option) (*Designer, error) {
	stmts, err := sqlparse.ParseScript(ddl)
	if err != nil {
		return nil, err
	}
	schema := catalog.NewSchema()
	type pendingIndex struct {
		name, table string
		columns     []string
	}
	var indexes []pendingIndex
	for i, stmt := range stmts {
		switch v := stmt.(type) {
		case *sqlparse.CreateTableStmt:
			cols := make([]catalog.Column, len(v.Columns))
			for j, c := range v.Columns {
				cols[j] = catalog.Column{Name: c.Name, Type: c.Type}
			}
			t, err := catalog.NewTable(v.Name, cols, v.PrimaryKey...)
			if err != nil {
				return nil, err
			}
			if err := schema.AddTable(t); err != nil {
				return nil, err
			}
		case *sqlparse.CreateIndexStmt:
			indexes = append(indexes, pendingIndex{name: v.Name, table: v.Table, columns: v.Columns})
		default:
			return nil, fmt.Errorf("designer: statement %d: only CREATE TABLE/INDEX allowed in DDL", i)
		}
	}
	store := storage.NewStore(schema)
	for _, ix := range indexes {
		if _, _, err := store.CreateIndex(ix.name, ix.table, ix.columns); err != nil {
			return nil, err
		}
	}
	if err := store.Analyze(); err != nil {
		return nil, err
	}
	return openStore(store, opts)
}

// Insert adds one row to a table, converting Go values to datums: int/
// int64 -> BIGINT, float64 -> DOUBLE, string -> TEXT, nil -> NULL.
// Materialized indexes on the table are maintained.
func (d *Designer) Insert(table string, values ...any) error {
	t := d.store.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("designer: unknown table %q", table)
	}
	if len(values) != len(t.Columns) {
		return fmt.Errorf("designer: table %s expects %d values, got %d",
			table, len(t.Columns), len(values))
	}
	row := make(catalog.Row, len(values))
	for i, v := range values {
		dv, err := toDatum(v)
		if err != nil {
			return fmt.Errorf("designer: column %s: %w", t.Columns[i].Name, err)
		}
		row[i] = dv
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, _, err := d.store.InsertRow(table, row)
	return err
}

// InsertRows bulk-loads many rows without index maintenance. To keep
// indexes consistent it refuses tables that already have materialized
// indexes — bulk-load first, then create indexes (or use Insert, which
// maintains them).
func (d *Designer) InsertRows(table string, rows [][]any) error {
	t := d.store.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("designer: unknown table %q", table)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, bt := range d.store.Indexes() {
		if d.store.Schema.Table(bt.Meta.Table) == t {
			return fmt.Errorf("designer: table %s has materialized index %s; bulk-load before creating indexes or use Insert",
				table, bt.Meta.Name)
		}
	}
	converted := make([]catalog.Row, 0, len(rows))
	for ri, vals := range rows {
		if len(vals) != len(t.Columns) {
			return fmt.Errorf("designer: row %d: expected %d values, got %d", ri, len(t.Columns), len(vals))
		}
		row := make(catalog.Row, len(vals))
		for i, v := range vals {
			dv, err := toDatum(v)
			if err != nil {
				return fmt.Errorf("designer: row %d column %s: %w", ri, t.Columns[i].Name, err)
			}
			row[i] = dv
		}
		converted = append(converted, row)
	}
	return d.store.Load(table, converted)
}

// Analyze refreshes statistics after loading data.
func (d *Designer) Analyze() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.store.Analyze(); err != nil {
		return err
	}
	// The store swapped in a fresh statistics catalog (copy-on-write);
	// hand it to the engine so new generations price with the new numbers
	// while pinned views keep the old catalog, and invalidate the INUM
	// cache's memoized access costs.
	d.eng.SetStats(d.store.Stats, d.store.MaterializedConfiguration())
	return nil
}

// toDatum converts a Go value to a catalog datum.
func toDatum(v any) (catalog.Datum, error) {
	switch x := v.(type) {
	case nil:
		return catalog.Null(), nil
	case int:
		return catalog.Int(int64(x)), nil
	case int64:
		return catalog.Int(x), nil
	case float64:
		return catalog.Float(x), nil
	case string:
		return catalog.String_(x), nil
	case catalog.Datum:
		return x, nil
	default:
		return catalog.Datum{}, fmt.Errorf("unsupported value type %T", v)
	}
}
