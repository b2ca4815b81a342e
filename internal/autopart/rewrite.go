package autopart

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// FragmentTableName names the physical table of fragment i of a vertically
// partitioned table (the naming the rewritten queries use).
func FragmentTableName(table string, i int) string {
	return fmt.Sprintf("%s__f%d", strings.ToLower(table), i)
}

// RewriteQuery returns the SQL a resolved query takes against a vertical
// layout: each partitioned table is replaced by the join, on the primary
// key, of the fragments the query reads. This is the "save the rewritten
// queries for the new table partitions" feature of Scenario 1/2. It builds
// the rewritten statement and hands it to sqlparse's renderer, so the text
// parses and keeps the original's predicate structure; fragment tables are a
// naming convention, not catalog objects. The rewritten statement is a new
// one, so it carries none of the source's analysis.
func RewriteQuery(sel *sqlparse.SelectStmt, schema *catalog.Schema, cfg *catalog.Configuration) (string, bool) {
	out := &sqlparse.SelectStmt{
		Distinct: sel.Distinct, Where: sel.Where, Having: sel.Having, Limit: sel.Limit, LimitParam: sel.LimitParam,
		Projections: append([]sqlparse.SelectItem(nil), sel.Projections...),
		GroupBy:     append([]sqlparse.Expr(nil), sel.GroupBy...),
		OrderBy:     append([]sqlparse.OrderItem(nil), sel.OrderBy...),
	}
	first := map[string]string{} // partitioned table -> its first fragment table in FROM
	var stitch []sqlparse.Expr   // PK equalities chaining each table's fragments
	for _, ref := range sel.From {
		var layout *catalog.VerticalLayout
		t := schema.Table(ref.Name)
		if t != nil {
			layout = cfg.VerticalOn(t.Name)
		}
		if layout == nil {
			out.From = append(out.From, ref)
			continue
		}
		names := fragmentTables(sel, t, layout)
		first[catalog.NormCol(t.Name)] = names[0]
		for i, name := range names {
			out.From = append(out.From, sqlparse.TableRef{Name: name})
			if i == 0 {
				continue
			}
			for _, pk := range t.PrimaryKey {
				stitch = append(stitch, &sqlparse.BinaryExpr{
					Op: sqlparse.OpEq,
					L:  &sqlparse.ColumnRef{Table: names[0], Column: strings.ToLower(pk)},
					R:  &sqlparse.ColumnRef{Table: name, Column: strings.ToLower(pk)},
				})
			}
		}
	}
	if len(first) == 0 {
		return sel.String(), false
	}

	requalify := func(e sqlparse.Expr) sqlparse.Expr {
		c, ok := e.(*sqlparse.ColumnRef)
		if !ok {
			return e
		}
		layout := cfg.VerticalOn(c.Table)
		if layout == nil {
			return e
		}
		// PK columns live in every fragment; read them from the first one
		// the query joins anyway.
		table := first[catalog.NormCol(c.Table)]
		if fi := layout.FragmentFor(c.Column); fi >= 0 {
			table = FragmentTableName(c.Table, fi)
		}
		return &sqlparse.ColumnRef{Table: table, Column: strings.ToLower(c.Column)}
	}
	out.EachExpr(func(slot *sqlparse.Expr) { *slot = sqlparse.Rewrite(*slot, requalify) })
	out.Where = sqlparse.AndAll(append(sqlparse.Conjuncts(out.Where), stitch...))
	return out.String(), true
}

// fragmentTables names, in fragment order, the fragments of t the query
// reads a non-key column from; a query touching only the primary key can
// use any fragment and gets the first.
func fragmentTables(sel *sqlparse.SelectStmt, t *catalog.Table, layout *catalog.VerticalLayout) []string {
	needed := map[int]bool{}
	for col := range sel.Analysis().ColumnsOf(catalog.NormCol(t.Name)) {
		if fi := layout.FragmentFor(col); fi >= 0 {
			needed[fi] = true
		}
	}
	if len(needed) == 0 {
		needed[0] = true
	}
	frags := make([]int, 0, len(needed))
	for fi := range needed {
		frags = append(frags, fi)
	}
	sort.Ints(frags)
	names := make([]string, len(frags))
	for i, fi := range frags {
		names[i] = FragmentTableName(t.Name, fi)
	}
	return names
}
