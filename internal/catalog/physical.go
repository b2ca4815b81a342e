package catalog

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"unicode/utf8"
)

// NormCol is the single canonicalization rule for column (and table) names
// across the design pipeline. Every identity comparison — Key, Covers, the
// optimizer's coverage and relevance checks (optimizer.CanUse), INUM's
// per-table configuration slices — must go through this helper so two layers
// can never disagree about whether "RA" and "ra" name the same column.
func NormCol(name string) string { return strings.ToLower(name) }

// NormCols canonicalizes a column list (fresh slice; input untouched).
func NormCols(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = NormCol(c)
	}
	return out
}

// StructureKind discriminates the physical structures the designer prices.
// The zero value is a plain secondary index, so every Index literal written
// before structures existed keeps its exact meaning.
type StructureKind int

const (
	// KindSecondary is a plain B-tree secondary index (the zero value).
	KindSecondary StructureKind = iota
	// KindProjection is a covering projection: a B-tree keyed on Columns
	// that additionally stores the Include columns in its leaves
	// (CREATE INDEX ... INCLUDE (...)), widening index-only eligibility.
	KindProjection
	// KindAggView is a single-table aggregate materialized view: one row
	// per distinct combination of the group keys (Columns), carrying the
	// pre-computed aggregates in Aggs.
	KindAggView
)

// String names the kind for DTOs and rendering.
func (k StructureKind) String() string {
	switch k {
	case KindProjection:
		return "projection"
	case KindAggView:
		return "aggview"
	default:
		return "index"
	}
}

// StructureKindByName parses a DTO kind string ("" and "index" both mean
// the secondary-index zero value).
func StructureKindByName(name string) (StructureKind, error) {
	switch strings.ToLower(name) {
	case "", "index":
		return KindSecondary, nil
	case "projection":
		return KindProjection, nil
	case "aggview":
		return KindAggView, nil
	}
	return 0, fmt.Errorf("catalog: unknown structure kind %q (index|projection|aggview)", name)
}

// Index describes one physical design structure over a prefix-ordered list
// of columns. Both real (materialized) and what-if (hypothetical) structures
// use this type; Hypothetical marks the latter. The paper's §2 stresses that
// hypothetical indexes must carry realistic sizes — sizing lives in the
// what-if layer, which fills EstimatedPages/EstimatedHeight.
//
// Historically this type described only secondary B-tree indexes; the Kind
// field generalizes it to covering projections (Include leaf columns) and
// single-table aggregate materialized views (Columns = group keys, Aggs =
// stored aggregates) without disturbing any zero-value behavior. Structure
// is the kind-neutral name.
type Index struct {
	Name         string
	Table        string
	Columns      []string
	Unique       bool
	Hypothetical bool

	// Kind discriminates the structure; the zero value is a plain
	// secondary index.
	Kind StructureKind
	// Include lists non-key columns stored in the leaves (KindProjection).
	Include []string
	// Aggs lists the stored aggregate expressions, e.g. "count(*)",
	// "sum(psfmag_r)" (KindAggView; Columns hold the group keys).
	Aggs []string
	// EstimatedRows is the structure's own cardinality where it differs
	// from the base table's (KindAggView: the number of groups).
	EstimatedRows int64

	// EstimatedPages and EstimatedHeight are filled by the what-if sizing
	// model (or by storage when the index is materialized). They feed the
	// optimizer's access-path costing; a zero value means "unsized".
	EstimatedPages  int64
	EstimatedHeight int
}

// Structure is the kind-neutral name for the unified physical-structure
// type: a secondary index, a covering projection, or an aggregate MV.
type Structure = Index

// Key returns a canonical identity string. Two structures with equal keys
// are interchangeable for design purposes regardless of their names. It is
// StructureKey of the structure's kind, table, columns and its Include
// (projection) or Aggs (aggregate view).
func (ix *Index) Key() string { return StructureKey(ix.Kind, ix.Table, ix.Columns, ix.extra()) }

// Clone returns a copy of the structure whose column lists are its own.
func (ix *Index) Clone() *Index {
	out := *ix
	out.Columns, out.Include, out.Aggs = slices.Clone(ix.Columns), slices.Clone(ix.Include), slices.Clone(ix.Aggs)
	return &out
}

// extra is the list the structure's kind carries beside its keys: a
// projection's Include, an aggregate view's Aggs, nothing for an index.
func (ix *Index) extra() []string {
	switch ix.Kind {
	case KindProjection:
		return ix.Include
	case KindAggView:
		return ix.Aggs
	}
	return nil
}

// StructureKey renders the canonical identity of a structure from its parts,
// so an enumerator can key a candidate before building it. Secondary indexes
// keep the exact legacy form table(col1,col2,...) — every signature, memo
// key, and warm-start basis built on it stays valid — while the other kinds
// append their extra list (ignored for a secondary index):
//
//	projection: table(keys) include(i1,i2)
//	aggview:    table(groupkeys) agg(count(*),sum(x))
func StructureKey(kind StructureKind, table string, columns, extra []string) string {
	var open string
	switch kind {
	case KindProjection:
		open = " include("
	case KindAggView:
		open = " agg("
	default:
		extra = nil
	}
	// Room for the names, a separator after each and the parentheses.
	n := len(table) + 2 + len(columns) + len(open) + len(extra)
	for _, c := range columns {
		n += len(c)
	}
	for _, c := range extra {
		n += len(c)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(NormCol(table))
	writeList(&b, "(", columns)
	if open != "" {
		writeList(&b, open, extra)
	}
	return b.String()
}

// writeList writes open, the normalized names joined by commas, and ")".
func writeList(b *strings.Builder, open string, names []string) {
	b.WriteString(open)
	for i, c := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(NormCol(c))
	}
	b.WriteByte(')')
}

// HasKey reports whether the structure's Key is key, without rendering the
// key: a configuration's lookups compare every member with one key. It
// reads Key's format piece by piece (TestHasKeyIsKeyEquality holds the two
// together).
func (ix *Index) HasKey(key string) bool {
	rest, ok := cutNorm(key, ix.Table)
	if ok {
		rest, ok = cutList(rest, "(", ix.Columns)
	}
	switch {
	case !ok:
	case ix.Kind == KindProjection:
		rest, ok = cutList(rest, " include(", ix.Include)
	case ix.Kind == KindAggView:
		rest, ok = cutList(rest, " agg(", ix.Aggs)
	}
	return ok && rest == ""
}

// cutList cuts open, the names canonicalized and joined by commas, and ")"
// off the front of s.
func cutList(s, open string, names []string) (string, bool) {
	s, ok := strings.CutPrefix(s, open)
	for i := 0; ok && i < len(names); i++ {
		if i > 0 {
			s, ok = strings.CutPrefix(s, ",")
		}
		if ok {
			s, ok = cutNorm(s, names[i])
		}
	}
	if ok {
		s, ok = strings.CutPrefix(s, ")")
	}
	return s, ok
}

// cutNorm cuts NormCol(name) off the front of s. An ASCII name is lowered
// byte by byte as it is compared; any other is lowered by NormCol itself.
func cutNorm(s, name string) (string, bool) {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return strings.CutPrefix(s, NormCol(name))
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if i == len(s) || s[i] != c {
			return s, false
		}
	}
	return s[len(name):], true
}

// String renders the structure in CREATE-ish form.
func (ix *Index) String() string {
	suffix := ""
	if ix.Hypothetical {
		suffix = " [what-if]"
	}
	switch ix.Kind {
	case KindProjection:
		return fmt.Sprintf("%s ON %s(%s) INCLUDE (%s)%s", ix.Name, ix.Table,
			strings.Join(ix.Columns, ", "), strings.Join(ix.Include, ", "), suffix)
	case KindAggView:
		return fmt.Sprintf("%s AS SELECT %s, %s FROM %s GROUP BY %s%s", ix.Name,
			strings.Join(ix.Columns, ", "), strings.Join(ix.Aggs, ", "), ix.Table,
			strings.Join(ix.Columns, ", "), suffix)
	default:
		return fmt.Sprintf("%s ON %s(%s)%s", ix.Name, ix.Table, strings.Join(ix.Columns, ", "), suffix)
	}
}

// LeadingColumn returns the first key column.
func (ix *Index) LeadingColumn() string { return ix.Columns[0] }

// Covers reports whether every column in cols appears in the structure, in
// any position (used for index-only scan eligibility). Projections also
// cover through their INCLUDE leaf columns.
func (ix *Index) Covers(cols []string) bool {
	for _, c := range cols {
		if !ix.stores(NormCol(c)) {
			return false
		}
	}
	return true
}

// CoversAll is Covers over a set of canonical (NormCol) column names — the
// form the optimizer's needed-column analysis produces.
func (ix *Index) CoversAll(cols map[string]bool) bool {
	for c := range cols {
		if !ix.stores(c) {
			return false
		}
	}
	return true
}

// stores reports whether the canonical column name is among the structure's
// key or INCLUDE columns. Structures are a handful of columns wide, so a
// scan beats building a set and allocates nothing.
func (ix *Index) stores(col string) bool {
	for _, c := range ix.Columns {
		if NormCol(c) == col {
			return true
		}
	}
	for _, c := range ix.Include {
		if NormCol(c) == col {
			return true
		}
	}
	return false
}

// DDL renders the statement that would materialize the structure, using
// name as the object name.
func (ix *Index) DDL(name string) string {
	return StructureDDL(name, ix.Kind, ix.Table, ix.Columns, ix.extra())
}

// StructureDDL renders the statement that would materialize a structure of
// the kind from its parts, as StructureKey renders its identity.
func StructureDDL(name string, kind StructureKind, table string, columns, extra []string) string {
	cols := strings.Join(columns, ", ")
	switch kind {
	case KindProjection:
		return fmt.Sprintf("CREATE INDEX %s ON %s (%s) INCLUDE (%s);", name, table, cols, strings.Join(extra, ", "))
	case KindAggView:
		return fmt.Sprintf("CREATE MATERIALIZED VIEW %s AS SELECT %s, %s FROM %s GROUP BY %s;",
			name, cols, strings.Join(extra, ", "), table, cols)
	}
	return fmt.Sprintf("CREATE INDEX %s ON %s (%s);", name, table, cols)
}

// VerticalLayout partitions a table's columns into disjoint fragments.
// Every fragment implicitly also stores the table's primary key (AutoPart's
// replication rule), so fragments can be joined back on the PK.
type VerticalLayout struct {
	Table string
	// Fragments lists each fragment's non-PK column names, lower-case: the
	// optimizer matches them against a query's columns as they are.
	// SetVertical lower-cases them; an edit after it must keep them so.
	Fragments [][]string
}

// FragmentFor returns the fragment ordinal containing the column, or -1.
// Primary-key columns are present in every fragment and return 0.
func (v *VerticalLayout) FragmentFor(column string) int {
	lc := NormCol(column)
	for i, frag := range v.Fragments {
		for _, c := range frag {
			if NormCol(c) == lc {
				return i
			}
		}
	}
	return -1
}

// String renders fragments as {a,b}{c}... .
func (v *VerticalLayout) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: ", v.Table)
	for _, frag := range v.Fragments {
		b.WriteString("{" + strings.Join(frag, ",") + "}")
	}
	return b.String()
}

// HorizontalLayout splits a table into contiguous ranges of one column.
// Bounds are the interior split points: n bounds create n+1 range
// fragments (-inf, b0), [b0, b1), ..., [b_{n-1}, +inf).
type HorizontalLayout struct {
	Table  string
	Column string
	Bounds []Datum
}

// FragmentCount returns the number of range fragments.
func (h *HorizontalLayout) FragmentCount() int { return len(h.Bounds) + 1 }

// FragmentFor returns the ordinal of the fragment that holds the value.
func (h *HorizontalLayout) FragmentFor(v Datum) int {
	for i, b := range h.Bounds {
		if v.Less(b) {
			return i
		}
	}
	return len(h.Bounds)
}

// String renders the layout with its split points.
func (h *HorizontalLayout) String() string {
	parts := make([]string, len(h.Bounds))
	for i, b := range h.Bounds {
		parts[i] = b.String()
	}
	return fmt.Sprintf("%s BY RANGE(%s) SPLIT AT (%s)", h.Table, h.Column, strings.Join(parts, ", "))
}

// Configuration is a complete physical design: a set of indexes plus
// optional partition layouts per table. Configurations are value-like;
// Clone before mutating a shared one. A layout map is nil until a layout
// is set on it (SetVertical, SetHorizontal), so most configurations —
// indexes only — carry none.
type Configuration struct {
	Indexes    []*Index
	Vertical   map[string]*VerticalLayout   // keyed by lower-case table name
	Horizontal map[string]*HorizontalLayout // keyed by lower-case table name
}

// NewConfiguration returns an empty configuration.
func NewConfiguration() *Configuration {
	return &Configuration{}
}

// Clone deep-copies the configuration (index structs and layouts are
// shared; the slice and any non-empty map are fresh).
func (c *Configuration) Clone() *Configuration {
	out := &Configuration{Indexes: append([]*Index(nil), c.Indexes...)}
	if len(c.Vertical) > 0 {
		out.Vertical = maps.Clone(c.Vertical)
	}
	if len(c.Horizontal) > 0 {
		out.Horizontal = maps.Clone(c.Horizontal)
	}
	return out
}

// WithIndex returns a clone with the index added (deduplicated by Key).
func (c *Configuration) WithIndex(ix *Index) *Configuration {
	out := c.Clone()
	if !out.HasIndex(ix.Key()) {
		out.Indexes = append(out.Indexes, ix)
	}
	return out
}

// WithoutIndex returns a clone with any index matching the key removed.
func (c *Configuration) WithoutIndex(key string) *Configuration {
	out := c.Clone()
	kept := out.Indexes[:0]
	for _, ix := range out.Indexes {
		if !ix.HasKey(key) {
			kept = append(kept, ix)
		}
	}
	out.Indexes = kept
	return out
}

// Index returns the structure with the canonical key, or nil.
func (c *Configuration) Index(key string) *Index {
	for _, ix := range c.Indexes {
		if ix.HasKey(key) {
			return ix
		}
	}
	return nil
}

// HasIndex reports whether an index with the canonical key is present.
func (c *Configuration) HasIndex(key string) bool { return c.Index(key) != nil }

// IndexesOn returns the indexes defined on the named table.
func (c *Configuration) IndexesOn(table string) []*Index {
	lt := NormCol(table)
	var out []*Index
	for _, ix := range c.Indexes {
		if NormCol(ix.Table) == lt {
			out = append(out, ix)
		}
	}
	return out
}

// SetVertical records (or replaces) the vertical layout for its table. It
// lower-cases the layout's fragment columns in place, so the layout renders
// in lower case whatever its producer's spelling. A column already
// lower-case is not written, so setting a shared lower-case layout again
// races with no reader.
func (c *Configuration) SetVertical(v *VerticalLayout) {
	for _, frag := range v.Fragments {
		for i, col := range frag {
			if lc := NormCol(col); lc != col {
				frag[i] = lc
			}
		}
	}
	if c.Vertical == nil {
		c.Vertical = make(map[string]*VerticalLayout)
	}
	c.Vertical[NormCol(v.Table)] = v
}

// SetHorizontal records (or replaces) the horizontal layout for its table.
func (c *Configuration) SetHorizontal(h *HorizontalLayout) {
	if c.Horizontal == nil {
		c.Horizontal = make(map[string]*HorizontalLayout)
	}
	c.Horizontal[NormCol(h.Table)] = h
}

// VerticalOn returns the table's vertical layout, or nil.
func (c *Configuration) VerticalOn(table string) *VerticalLayout {
	return c.Vertical[NormCol(table)]
}

// HorizontalOn returns the table's horizontal layout, or nil.
func (c *Configuration) HorizontalOn(table string) *HorizontalLayout {
	return c.Horizontal[NormCol(table)]
}
