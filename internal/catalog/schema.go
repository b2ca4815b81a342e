package catalog

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type Kind
	// AvgWidth is the average stored byte width used for page accounting
	// and index sizing. Zero means "use the type default" (8 for numerics,
	// 16 for strings).
	AvgWidth int
}

// WidthBytes returns the effective average width of the column.
func (c Column) WidthBytes() int {
	if c.AvgWidth > 0 {
		return c.AvgWidth
	}
	if c.Type == KindString {
		return 16
	}
	return 8
}

// Table is the logical description of a relation.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []string // column names; replicated into every vertical fragment

	byName map[string]int
}

// NewTable builds a table descriptor and validates column uniqueness.
func NewTable(name string, cols []Column, primaryKey ...string) (*Table, error) {
	if name == "" {
		return nil, errors.New("catalog: table name must not be empty")
	}
	t := &Table{Name: name, Columns: cols, PrimaryKey: primaryKey,
		byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := t.byName[lc]; dup {
			return nil, fmt.Errorf("catalog: table %s: duplicate column %s", name, c.Name)
		}
		t.byName[lc] = i
	}
	for _, pk := range primaryKey {
		if _, ok := t.byName[strings.ToLower(pk)]; !ok {
			return nil, fmt.Errorf("catalog: table %s: primary key column %s not found", name, pk)
		}
	}
	return t, nil
}

// MustTable is NewTable that panics on error; for static schema literals.
func MustTable(name string, cols []Column, primaryKey ...string) *Table {
	t, err := NewTable(name, cols, primaryKey...)
	if err != nil {
		panic(err)
	}
	return t
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Column returns the named column descriptor, or nil.
func (t *Table) Column(name string) *Column {
	i := t.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	return &t.Columns[i]
}

// HasColumn reports whether the table defines the named column.
func (t *Table) HasColumn(name string) bool { return t.ColumnIndex(name) >= 0 }

// RowWidthBytes returns the average tuple width including a fixed per-tuple
// header, mirroring the heap tuple header of a row store.
func (t *Table) RowWidthBytes() int {
	const tupleHeader = 24
	w := tupleHeader
	for _, c := range t.Columns {
		w += c.WidthBytes()
	}
	return w
}

// Schema is a named collection of tables.
type Schema struct {
	tables  map[string]*Table
	ordered []*Table
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{tables: make(map[string]*Table)}
}

// AddTable registers a table; it is an error to register the same name twice.
func (s *Schema) AddTable(t *Table) error {
	key := strings.ToLower(t.Name)
	if _, dup := s.tables[key]; dup {
		return fmt.Errorf("catalog: duplicate table %s", t.Name)
	}
	s.tables[key] = t
	s.ordered = append(s.ordered, t)
	return nil
}

// MustAddTable is AddTable that panics on error.
func (s *Schema) MustAddTable(t *Table) {
	if err := s.AddTable(t); err != nil {
		panic(err)
	}
}

// Table looks a table up by case-insensitive name, or returns nil.
func (s *Schema) Table(name string) *Table { return s.tables[strings.ToLower(name)] }

// Tables returns all tables in registration order.
func (s *Schema) Tables() []*Table { return s.ordered }

// ResolveColumn finds the unique table defining the named column among the
// given candidate tables (used to qualify bare column references in SQL).
// It returns an error when the column is ambiguous or unknown.
func (s *Schema) ResolveColumn(column string, among []string) (string, error) {
	var buf [2]string // on the stack: resolving allocates nothing
	found := buf[:0]
	for _, tn := range among {
		t := s.Table(tn)
		if t != nil && t.HasColumn(column) {
			found = append(found, t.Name)
		}
	}
	switch len(found) {
	case 1:
		return found[0], nil
	case 0:
		return "", fmt.Errorf("catalog: column %q not found in %v", column, among)
	default:
		names := slices.Clone(found)
		slices.Sort(names)
		return "", fmt.Errorf("catalog: column %q is ambiguous between %v", column, names)
	}
}
