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

// Footprint is the part of a statement's analysis that holds no node of the
// statement: the tables it reads, the columns it references on each, and its
// grouping. The optimizer's relevance rule (optimizer.CanUse) reads the
// columns for index-only scans and the grouping for aggregate views; which
// columns an index can lead with is the statement's Leads.
type Footprint struct {
	// Tables are the lower-case FROM tables, in FROM order. Every per-table
	// reading of the analysis is a slice indexed like it.
	Tables []string
	// Columns[i] is the set of lower-case columns of Tables[i] the statement
	// references anywhere: projections, WHERE, GROUP BY, HAVING, ORDER BY.
	// Index-only scans, vertical-fragment selection and the optimizer's
	// relevance rule for covering structures all read this one set, so they
	// cannot drift apart.
	Columns []map[string]bool
	// Star reports a bare * projection.
	Star bool
	// Aggregate reports GROUP BY or an aggregate call in a projection.
	Aggregate bool
	// GroupKeys are the GROUP BY keys that are plain column references,
	// lower-case, in clause order; PlainGroups reports that every key is one
	// (vacuously so without GROUP BY). Aggregate-view matching keys on them:
	// a view stores one row per distinct key combination, which is only
	// well-defined when the keys are columns, not computed expressions.
	GroupKeys   []string
	PlainGroups bool
}

// Analysis is what every reader of a resolved statement needs of it beyond
// the tree: its footprint, its WHERE conjuncts classified, and the aggregate
// calls a view must store to answer it. SelectStmt.Analysis derives it once;
// it is read-only.
type Analysis struct {
	*Footprint
	// Conjuncts are the WHERE clause's top-level AND factors.
	Conjuncts []Expr
	// Filters, Joins and Residual classify the conjuncts: Filters[i] holds
	// those whose columns all come from Tables[i], Joins the equi-join edges
	// between two tables, and Residual everything else (constant and
	// cross-table non-equi predicates).
	Filters  [][]Expr
	Joins    []JoinEdge
	Residual []Expr
	// Aggregates lists the aggregate calls of the projections (in order) and
	// of HAVING, rendered canonically by AggString; calls nested in
	// arithmetic ("max(ra) - min(ra)") count individually. An aggregate view
	// can answer the statement only when it stores every one.
	Aggregates []string
}

// Analysis returns the statement's analysis, deriving it on first use. It
// describes the statement as it stands then, so a statement is analysed
// only once it is final: Resolve and parameter binding come first, and
// nothing edits it afterwards (a rewrite builds a new statement). Racing
// first uses derive equal values and all return the one published.
func (s *SelectStmt) Analysis() *Analysis {
	if a := s.analysis.Load(); a != nil {
		return a
	}
	s.analysis.CompareAndSwap(nil, analyze(s))
	return s.analysis.Load()
}

// Lead is a column an index path of the statement can lead with, spelled as
// the resolved statement spells it. Order marks an interesting order — an
// equi-join endpoint or the first ORDER BY column — and its absence a
// sargable filter column.
type Lead struct {
	Table, Column string
	Order         bool
}

// Leads yields the columns an index path can lead with, in statement order
// and with repeats: each FROM table's sargable filter columns (SargableOf),
// both endpoints of every equi-join, then the first ORDER BY column when it
// is a plain column. A path through an index whose leading column is none
// of these matches no filter, probes no join and delivers no order the plan
// wants, so only an index-only scan can keep it (optimizer.CanUse). It is
// derived from the analysis on every call and stores nothing.
func (s *SelectStmt) Leads(yield func(Lead) bool) {
	a := s.Analysis()
	for _, filters := range a.Filters {
		for _, conj := range filters {
			if sr, ok := SargableOf(conj); ok && !yield(Lead{Table: sr.Table, Column: sr.Column}) {
				return
			}
		}
	}
	for _, j := range a.Joins {
		if !yield(Lead{Table: j.LeftTable, Column: j.LeftColumn, Order: true}) ||
			!yield(Lead{Table: j.RightTable, Column: j.RightColumn, Order: true}) {
			return
		}
	}
	if len(s.OrderBy) > 0 {
		if col, ok := s.OrderBy[0].Expr.(*ColumnRef); ok {
			yield(Lead{Table: col.Table, Column: col.Column, Order: true})
		}
	}
}

// ColumnsOf is Columns for a lower-case table; nil when the statement does
// not read it.
func (f *Footprint) ColumnsOf(table string) map[string]bool {
	if i := slices.Index(f.Tables, table); i >= 0 {
		return f.Columns[i]
	}
	return nil
}

// FiltersOf is Filters for a lower-case table; nil when the statement does
// not read it.
func (a *Analysis) FiltersOf(table string) []Expr {
	if i := slices.Index(a.Tables, table); i >= 0 {
		return a.Filters[i]
	}
	return nil
}

// analyze derives a statement's analysis. It reads a resolved statement: a
// column is credited to the FROM table that qualifies it, and a filter whose
// qualifier names none is left to the residual.
func analyze(sel *SelectStmt) *Analysis {
	n := len(sel.From)
	f := &Footprint{Tables: make([]string, n), Columns: make([]map[string]bool, n), PlainGroups: true}
	for i, ref := range sel.From {
		f.Tables[i] = strings.ToLower(ref.Name)
	}
	sel.EachExpr(func(slot *Expr) {
		Walk(*slot, func(e Expr) bool {
			switch v := e.(type) {
			case *StarExpr:
				f.Star = true
			case *ColumnRef:
				if i := slices.Index(f.Tables, strings.ToLower(v.Table)); i >= 0 {
					if f.Columns[i] == nil {
						f.Columns[i] = make(map[string]bool)
					}
					f.Columns[i][strings.ToLower(v.Column)] = true
				}
			}
			return true
		})
	})
	for _, g := range sel.GroupBy {
		if c, ok := g.(*ColumnRef); ok {
			f.GroupKeys = append(f.GroupKeys, strings.ToLower(c.Column))
		} else {
			f.PlainGroups = false
		}
	}

	a := &Analysis{Footprint: f, Conjuncts: Conjuncts(sel.Where), Filters: make([][]Expr, n)}
	collect := func(e Expr) bool {
		fn, isAgg := e.(*FuncExpr)
		if isAgg {
			a.Aggregates = append(a.Aggregates, AggString(fn))
		}
		return !isAgg
	}
	for _, p := range sel.Projections {
		Walk(p.Expr, collect)
	}
	f.Aggregate = len(sel.GroupBy) > 0 || len(a.Aggregates) > 0
	Walk(sel.Having, collect)

	for _, conj := range a.Conjuncts {
		tables := tablesOf(conj)
		switch len(tables) {
		case 0:
			a.Residual = append(a.Residual, conj) // constant predicate
		case 1:
			if i := slices.Index(f.Tables, tables[0]); i >= 0 {
				a.Filters[i] = append(a.Filters[i], conj)
			} else {
				a.Residual = append(a.Residual, conj)
			}
		case 2:
			if je, ok := asJoinEdge(conj); ok {
				a.Joins = append(a.Joins, je)
			} else {
				a.Residual = append(a.Residual, conj)
			}
		default:
			a.Residual = append(a.Residual, conj)
		}
	}
	return a
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
