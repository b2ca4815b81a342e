package sqlparse

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/catalog"
)

// Expr is any SQL scalar expression node. The unexported method seals the
// set of node kinds to this package.
type Expr interface {
	fmt.Stringer
	// prec is the grammar level the node's rendering parses at.
	prec() int
}

// Grammar levels, loosest first (the package comment's expression grammar).
// A node rendered where the grammar wants a tighter level gets parentheses,
// so String() parses back to the tree it was rendered from.
const (
	precOr = iota
	precAnd
	precNot
	precPredicate // comparison, BETWEEN, IN, IS NULL
	precAdditive
	precMultiplicative
	precPrimary
)

// operand renders e for a position that needs at least level min.
func operand(e Expr, min int) string {
	if e.prec() < min {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// ColumnRef references table.column; Table may be empty before resolution.
type ColumnRef struct {
	Table  string
	Column string
}

func (*ColumnRef) prec() int { return precPrimary }

// String renders the (possibly qualified) reference.
func (c *ColumnRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// Literal wraps a constant datum.
type Literal struct {
	Value catalog.Datum
}

func (*Literal) prec() int { return precPrimary }

// String renders the literal in SQL form. A float keeps a point when its
// shortest form has none ("3.0", not "3"), so it parses back as a float.
func (l *Literal) String() string {
	s := l.Value.String()
	if l.Value.Kind == catalog.KindFloat && !strings.ContainsAny(s, ".eIN") { // no point, exponent, Inf or NaN
		s += ".0"
	}
	return s
}

// Param is a parameter: a constant the statement leaves open. Name is its
// text, "$1". It remembers the text it was parsed from and its place there,
// so whoever cannot bind it can say so where its author will look.
type Param struct {
	Name string
	src  string
	pos  int
}

func (*Param) prec() int { return precPrimary }

// String renders the parameter as written.
func (p *Param) String() string { return p.Name }

// Errorf formats an error about the parameter, positioned like the parser's.
func (p *Param) Errorf(format string, args ...any) error {
	return errorAt(p.src, p.pos, format, args...)
}

// BinOp enumerates binary operators.
type BinOp string

// Binary operators supported by the dialect.
const (
	OpAnd BinOp = "AND"
	OpOr  BinOp = "OR"
	OpEq  BinOp = "="
	OpNe  BinOp = "<>"
	OpLt  BinOp = "<"
	OpLe  BinOp = "<="
	OpGt  BinOp = ">"
	OpGe  BinOp = ">="
	OpAdd BinOp = "+"
	OpSub BinOp = "-"
	OpMul BinOp = "*"
	OpDiv BinOp = "/"
)

// IsComparison reports whether the operator compares two values.
func (o BinOp) IsComparison() bool {
	switch o {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

func (b *BinaryExpr) prec() int {
	switch b.Op {
	case OpOr:
		return precOr
	case OpAnd:
		return precAnd
	case OpAdd, OpSub:
		return precAdditive
	case OpMul, OpDiv:
		return precMultiplicative
	default:
		return precPredicate
	}
}

// String renders the expression with the parentheses its operands need to
// parse back into the same tree. AND and OR chain without them (both
// associate), an AND under an OR keeps them for the reader, arithmetic is
// left-associative, and a comparison's operands are arithmetic.
func (b *BinaryExpr) String() string {
	var ls, rs string
	switch p := b.prec(); p {
	case precOr, precAnd:
		logical := func(e Expr) string {
			if inner, ok := e.(*BinaryExpr); ok && inner.Op == b.Op {
				return e.String()
			}
			return operand(e, precNot)
		}
		ls, rs = logical(b.L), logical(b.R)
	case precPredicate:
		ls, rs = operand(b.L, precAdditive), operand(b.R, precAdditive)
	default:
		ls, rs = operand(b.L, p), operand(b.R, p+1)
	}
	return ls + " " + string(b.Op) + " " + rs
}

// NotExpr negates a boolean expression.
type NotExpr struct {
	E Expr
}

func (*NotExpr) prec() int { return precNot }

// String renders NOT (e).
func (n *NotExpr) String() string { return "NOT (" + n.E.String() + ")" }

// BetweenExpr is e BETWEEN lo AND hi (inclusive both ends).
type BetweenExpr struct {
	E, Lo, Hi Expr
}

func (*BetweenExpr) prec() int { return precPredicate }

// String renders the BETWEEN form.
func (b *BetweenExpr) String() string {
	return operand(b.E, precAdditive) + " BETWEEN " + operand(b.Lo, precAdditive) + " AND " + operand(b.Hi, precAdditive)
}

// InExpr is e IN (v1, v2, ...).
type InExpr struct {
	E    Expr
	List []Expr
}

func (*InExpr) prec() int { return precPredicate }

// String renders the IN form.
func (i *InExpr) String() string {
	parts := make([]string, len(i.List))
	for k, e := range i.List {
		parts[k] = operand(e, precAdditive)
	}
	return operand(i.E, precAdditive) + " IN (" + strings.Join(parts, ", ") + ")"
}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (*IsNullExpr) prec() int { return precPredicate }

// String renders IS [NOT] NULL.
func (i *IsNullExpr) String() string {
	if i.Not {
		return operand(i.E, precAdditive) + " IS NOT NULL"
	}
	return operand(i.E, precAdditive) + " IS NULL"
}

// AggFunc enumerates aggregate functions.
type AggFunc string

// Supported aggregates.
const (
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// FuncExpr is an aggregate call. Star means COUNT(*).
type FuncExpr struct {
	Func AggFunc
	Arg  Expr // nil when Star
	Star bool
}

func (*FuncExpr) prec() int { return precPrimary }

// String renders the call.
func (f *FuncExpr) String() string {
	if f.Star {
		return string(f.Func) + "(*)"
	}
	return string(f.Func) + "(" + f.Arg.String() + ")"
}

// StarExpr is the bare * projection.
type StarExpr struct{}

func (*StarExpr) prec() int { return precPrimary }

// String renders "*".
func (*StarExpr) String() string { return "*" }

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// String renders expr [AS alias].
func (s SelectItem) String() string {
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// TableRef is a FROM-list entry. Alias may be empty.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name queries use to reference the table's columns.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// String renders name [alias].
func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// String renders expr [DESC].
func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// SelectStmt is a single-block query. Explicit JOIN ... ON clauses are
// normalized at parse time: the joined tables land in From and the ON
// predicates are AND-ed into Where, which is the form the optimizer and the
// advisors consume. A statement is not copied: its analysis and key memos are
// not values (go vet's copylocks check holds that), so a rewrite builds a new
// statement.
type SelectStmt struct {
	Distinct    bool
	Projections []SelectItem
	From        []TableRef
	Where       Expr // nil when absent
	GroupBy     []Expr
	Having      Expr
	OrderBy     []OrderItem
	Limit       int64  // -1 when absent
	LimitParam  *Param // LIMIT $n: the row count is open and Limit is -1

	analysis atomic.Pointer[Analysis] // see Analysis
	key      atomic.Pointer[string]   // see Key
}

// Key is the statement's identity: its canonical rendering, made on first use
// and kept. Two statements that render alike are one query to every cache
// keyed by it (INUM entries), whatever text or tree they were parsed from.
// Like Analysis it describes the statement as it stands then, so it is
// asked for only once the statement is final.
func (s *SelectStmt) Key() string {
	if k := s.key.Load(); k != nil {
		return *k
	}
	k := s.String()
	s.key.CompareAndSwap(nil, &k)
	return *s.key.Load()
}

// String reassembles SQL text (canonical, not source-preserving).
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, p := range s.Projections {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, e := range s.GroupBy {
			parts[i] = e.String()
		}
		b.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = o.String()
		}
		b.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	switch {
	case s.LimitParam != nil:
		b.WriteString(" LIMIT " + s.LimitParam.String())
	case s.Limit >= 0:
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type catalog.Kind
}

// CreateTableStmt is the CREATE TABLE DDL form.
type CreateTableStmt struct {
	Name       string
	Columns    []ColumnDef
	PrimaryKey []string
}

// String renders canonical DDL.
func (c *CreateTableStmt) String() string {
	parts := make([]string, 0, len(c.Columns)+1)
	for _, col := range c.Columns {
		parts = append(parts, col.Name+" "+col.Type.String())
	}
	if len(c.PrimaryKey) > 0 {
		parts = append(parts, "PRIMARY KEY ("+strings.Join(c.PrimaryKey, ", ")+")")
	}
	return "CREATE TABLE " + c.Name + " (" + strings.Join(parts, ", ") + ")"
}

// CreateIndexStmt is the CREATE INDEX DDL form.
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// String renders canonical DDL.
func (c *CreateIndexStmt) String() string {
	u := ""
	if c.Unique {
		u = "UNIQUE "
	}
	return "CREATE " + u + "INDEX " + c.Name + " ON " + c.Table + " (" + strings.Join(c.Columns, ", ") + ")"
}

// Statement is any parsed SQL statement.
type Statement interface {
	fmt.Stringer
	stmtNode()
}

func (*SelectStmt) stmtNode()      {}
func (*CreateTableStmt) stmtNode() {}
func (*CreateIndexStmt) stmtNode() {}
