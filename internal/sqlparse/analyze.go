package sqlparse

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
)

// Conjuncts flattens a predicate tree into its top-level AND factors. A nil
// expression yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll rebuilds a conjunction from factors; returns nil for an empty list.
func AndAll(factors []Expr) Expr {
	var out Expr
	for _, f := range factors {
		if out == nil {
			out = f
		} else {
			out = &BinaryExpr{Op: OpAnd, L: out, R: f}
		}
	}
	return out
}

// WalkColumns invokes fn for every ColumnRef in the expression tree.
func WalkColumns(e Expr, fn func(*ColumnRef)) {
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*ColumnRef); ok {
			fn(c)
		}
		return true
	})
}

// ReferencedColumns returns, per lower-case table name, the set of
// lower-case columns a resolved statement references anywhere —
// projections, WHERE, GROUP BY, HAVING, ORDER BY — plus whether the
// statement projects a bare star. This is the per-query relevance set the
// engine's delta costing keys on: an index over columns a query never
// mentions cannot enter any of its plans.
func ReferencedColumns(sel *SelectStmt) (cols map[string]map[string]bool, star bool) {
	cols = make(map[string]map[string]bool)
	add := func(c *ColumnRef) {
		lt, lc := strings.ToLower(c.Table), strings.ToLower(c.Column)
		if cols[lt] == nil {
			cols[lt] = make(map[string]bool)
		}
		cols[lt][lc] = true
	}
	sel.EachExpr(func(slot *Expr) {
		Walk(*slot, func(n Expr) bool {
			switch v := n.(type) {
			case *StarExpr:
				star = true
			case *ColumnRef:
				add(v)
			}
			return true
		})
	})
	return cols, star
}

// Resolve qualifies every column reference in the statement with its real
// table name — bare columns against the schema, alias-qualified ones
// through the FROM bindings — verifies every referenced column exists, and
// then clears the FROM aliases, which nothing refers to any more. The result
// is the canonical form: its String() parses and resolves to itself. A table
// named twice in FROM is refused: only its aliases told the copies apart. So
// is a WHERE or HAVING whose AND/OR/NOT operands are not all predicates.
func Resolve(sel *SelectStmt, schema *catalog.Schema) error {
	if bad := notAPredicate(sel.Where); bad != nil {
		return fmt.Errorf("sqlparse: WHERE operand %q is not a predicate", bad)
	}
	if bad := notAPredicate(sel.Having); bad != nil {
		return fmt.Errorf("sqlparse: HAVING operand %q is not a predicate", bad)
	}

	// Map binding (alias or name, lower-case) -> real table name.
	binding := make(map[string]string, len(sel.From))
	tables := make([]string, 0, len(sel.From))
	for _, ref := range sel.From {
		t := schema.Table(ref.Name)
		if t == nil {
			return fmt.Errorf("sqlparse: unknown table %q", ref.Name)
		}
		b := strings.ToLower(ref.Binding())
		if _, dup := binding[b]; dup {
			return fmt.Errorf("sqlparse: duplicate table binding %q", ref.Binding())
		}
		if slices.Contains(tables, t.Name) {
			return fmt.Errorf("sqlparse: self-join: table %q stands twice in FROM", t.Name)
		}
		binding[b] = t.Name
		tables = append(tables, t.Name)
	}

	resolve := func(c *ColumnRef) error {
		if c.Table != "" {
			real, ok := binding[strings.ToLower(c.Table)]
			if !ok {
				return fmt.Errorf("sqlparse: unknown table or alias %q", c.Table)
			}
			c.Table = real
		} else {
			real, err := schema.ResolveColumn(c.Column, tables)
			if err != nil {
				return err
			}
			c.Table = real
		}
		if !schema.Table(c.Table).HasColumn(c.Column) {
			return fmt.Errorf("sqlparse: table %s has no column %q", c.Table, c.Column)
		}
		return nil
	}
	var err error
	sel.EachExpr(func(slot *Expr) {
		Walk(*slot, func(n Expr) bool {
			if c, ok := n.(*ColumnRef); ok && err == nil {
				err = resolve(c)
			}
			return err == nil
		})
	})
	if err != nil {
		return err
	}
	for i := range sel.From {
		sel.From[i].Alias = ""
	}
	return nil
}

// notAPredicate returns the first operand of a condition's AND/OR/NOT tree
// that is not a predicate — a comparison, BETWEEN, IN or IS [NOT] NULL — or
// nil. The dialect has no boolean type, so nothing else can be true or false.
func notAPredicate(cond Expr) Expr {
	switch v := cond.(type) {
	case nil, *BetweenExpr, *InExpr, *IsNullExpr:
		return nil
	case *NotExpr:
		return notAPredicate(v.E)
	case *BinaryExpr:
		if v.Op == OpAnd || v.Op == OpOr {
			if bad := notAPredicate(v.L); bad != nil {
				return bad
			}
			return notAPredicate(v.R)
		}
		if v.Op.IsComparison() {
			return nil
		}
	}
	return cond
}

// JoinEdge is an equality join predicate between two tables' columns.
type JoinEdge struct {
	LeftTable, LeftColumn   string
	RightTable, RightColumn string
	Pred                    Expr // the original predicate expression
}

// String renders l.t = r.t form.
func (j JoinEdge) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn)
}

// SplitPredicates classifies the WHERE conjuncts of a resolved SELECT into
// per-table filters (all columns from one table), equi-join edges, and a
// residual list of anything else (cross-table non-equi predicates).
func SplitPredicates(sel *SelectStmt) (filters map[string][]Expr, joins []JoinEdge, residual []Expr) {
	filters = make(map[string][]Expr)
	for _, conj := range Conjuncts(sel.Where) {
		tables := tablesOf(conj)
		switch len(tables) {
		case 0:
			residual = append(residual, conj) // constant predicate
		case 1:
			t := tables[0]
			filters[t] = append(filters[t], conj)
		case 2:
			if je, ok := asJoinEdge(conj); ok {
				joins = append(joins, je)
			} else {
				residual = append(residual, conj)
			}
		default:
			residual = append(residual, conj)
		}
	}
	return filters, joins, residual
}

// tablesOf returns the distinct (lower-case) table names referenced.
func tablesOf(e Expr) []string {
	seen := make(map[string]bool)
	var out []string
	WalkColumns(e, func(c *ColumnRef) {
		lt := strings.ToLower(c.Table)
		if !seen[lt] {
			seen[lt] = true
			out = append(out, lt)
		}
	})
	return out
}

// asJoinEdge recognizes col = col between two different tables.
func asJoinEdge(e Expr) (JoinEdge, bool) {
	b, ok := e.(*BinaryExpr)
	if !ok || b.Op != OpEq {
		return JoinEdge{}, false
	}
	l, lok := b.L.(*ColumnRef)
	r, rok := b.R.(*ColumnRef)
	if !lok || !rok {
		return JoinEdge{}, false
	}
	if strings.EqualFold(l.Table, r.Table) {
		return JoinEdge{}, false
	}
	return JoinEdge{
		LeftTable: l.Table, LeftColumn: l.Column,
		RightTable: r.Table, RightColumn: r.Column,
		Pred: e,
	}, true
}

// SargableRef describes a simple indexable predicate col OP const.
type SargableRef struct {
	Table, Column string
	Op            BinOp         // normalized so the column is on the left
	Value         catalog.Datum // comparison constant (Lo for between)
	Hi            catalog.Datum // upper bound for BETWEEN / IN list proxies
	IsRange       bool          // true for <,<=,>,>=,BETWEEN
	IsEquality    bool          // true for = and IN
}

// SargableOf extracts an indexable reference from a single-table conjunct,
// when it has the shape column OP literal (possibly reversed), BETWEEN, or
// IN-list. Returns false for anything else.
func SargableOf(e Expr) (SargableRef, bool) {
	switch v := e.(type) {
	case *BinaryExpr:
		if !v.Op.IsComparison() {
			return SargableRef{}, false
		}
		col, colOK := v.L.(*ColumnRef)
		lit, litOK := v.R.(*Literal)
		op := v.Op
		if !colOK || !litOK {
			// try the reversed orientation: literal OP column
			col, colOK = v.R.(*ColumnRef)
			lit, litOK = v.L.(*Literal)
			if !colOK || !litOK {
				return SargableRef{}, false
			}
			op = reverseCmp(op)
		}
		if op == OpNe {
			return SargableRef{}, false
		}
		return SargableRef{
			Table: col.Table, Column: col.Column, Op: op, Value: lit.Value,
			IsRange:    op == OpLt || op == OpLe || op == OpGt || op == OpGe,
			IsEquality: op == OpEq,
		}, true
	case *BetweenExpr:
		col, colOK := v.E.(*ColumnRef)
		lo, loOK := v.Lo.(*Literal)
		hi, hiOK := v.Hi.(*Literal)
		if !colOK || !loOK || !hiOK {
			return SargableRef{}, false
		}
		return SargableRef{
			Table: col.Table, Column: col.Column, Op: OpGe,
			Value: lo.Value, Hi: hi.Value, IsRange: true,
		}, true
	case *InExpr:
		col, colOK := v.E.(*ColumnRef)
		if !colOK {
			return SargableRef{}, false
		}
		for _, item := range v.List {
			if _, ok := item.(*Literal); !ok {
				return SargableRef{}, false
			}
		}
		first := v.List[0].(*Literal)
		return SargableRef{
			Table: col.Table, Column: col.Column, Op: OpEq,
			Value: first.Value, IsEquality: true,
		}, true
	default:
		return SargableRef{}, false
	}
}

// reverseCmp flips a comparison for operand swap (a < b  <=>  b > a).
func reverseCmp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// GroupKeyColumns returns the GROUP BY keys that are plain column
// references, as lower-case column names in clause order, plus whether
// every group key is a plain column. Aggregate-MV matching keys on this:
// a view stores one row per distinct key combination, which is only
// well-defined when the keys are columns, not computed expressions.
func GroupKeyColumns(sel *SelectStmt) (cols []string, allPlain bool) {
	allPlain = true
	for _, g := range sel.GroupBy {
		if c, ok := g.(*ColumnRef); ok {
			cols = append(cols, strings.ToLower(c.Column))
		} else {
			allPlain = false
		}
	}
	return cols, allPlain
}

// Aggregates lists the aggregate function calls in the projection list (in
// projection order) and HAVING clause, rendered canonically ("count(*)",
// "sum(psfmag_r)", lower-case). Calls nested in arithmetic
// ("max(ra) - min(ra)") are included individually. An aggregate MV can
// answer a query only when every entry here is among its stored aggregates.
func Aggregates(sel *SelectStmt) []string {
	var out []string
	collect := func(e Expr) bool {
		f, isAgg := e.(*FuncExpr)
		if isAgg {
			out = append(out, AggString(f))
		}
		return !isAgg
	}
	for _, p := range sel.Projections {
		Walk(p.Expr, collect)
	}
	Walk(sel.Having, collect)
	return out
}

// AggString renders one aggregate call canonically as func(arg) or func(*),
// lower-cased. This is the string form aggregate MVs store in
// catalog.Index.Aggs, so matching is a set-membership test.
func AggString(f *FuncExpr) string {
	if f.Star || f.Arg == nil {
		return strings.ToLower(string(f.Func)) + "(*)"
	}
	if c, ok := f.Arg.(*ColumnRef); ok {
		return strings.ToLower(string(f.Func) + "(" + c.Column + ")")
	}
	return strings.ToLower(string(f.Func) + "(" + f.Arg.String() + ")")
}

// HasAggregate reports whether the statement computes any aggregate.
func HasAggregate(sel *SelectStmt) bool {
	found := len(sel.GroupBy) > 0
	for _, p := range sel.Projections {
		Walk(p.Expr, func(e Expr) bool {
			_, isAgg := e.(*FuncExpr)
			found = found || isAgg
			return !found
		})
	}
	return found
}
