package sqlparse

import "fmt"

// Walk visits e and then its descendants, parents before children and
// siblings left to right. visit returning false prunes: the node's children
// are skipped. A nil e is not visited.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch v := e.(type) {
	case *ColumnRef, *Literal, *Param, *StarExpr:
	case *BinaryExpr:
		Walk(v.L, visit)
		Walk(v.R, visit)
	case *NotExpr:
		Walk(v.E, visit)
	case *BetweenExpr:
		Walk(v.E, visit)
		Walk(v.Lo, visit)
		Walk(v.Hi, visit)
	case *InExpr:
		Walk(v.E, visit)
		for _, x := range v.List {
			Walk(x, visit)
		}
	case *IsNullExpr:
		Walk(v.E, visit)
	case *FuncExpr:
		Walk(v.Arg, visit)
	default:
		panic(fmt.Sprintf("sqlparse: Walk: unhandled node %T", e))
	}
}

// Rewrite rebuilds e bottom-up: every node's children are rewritten first,
// the node is rebuilt around them, and fn maps the rebuilt node to its
// replacement (or returns it unchanged). The input tree is never modified
// and the result shares only the leaves fn left alone. A nil e stays nil.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case *ColumnRef, *Literal, *Param, *StarExpr:
		return fn(e)
	case *BinaryExpr:
		return fn(&BinaryExpr{Op: v.Op, L: Rewrite(v.L, fn), R: Rewrite(v.R, fn)})
	case *NotExpr:
		return fn(&NotExpr{E: Rewrite(v.E, fn)})
	case *BetweenExpr:
		return fn(&BetweenExpr{E: Rewrite(v.E, fn), Lo: Rewrite(v.Lo, fn), Hi: Rewrite(v.Hi, fn)})
	case *InExpr:
		list := make([]Expr, len(v.List))
		for i, x := range v.List {
			list[i] = Rewrite(x, fn)
		}
		return fn(&InExpr{E: Rewrite(v.E, fn), List: list})
	case *IsNullExpr:
		return fn(&IsNullExpr{E: Rewrite(v.E, fn), Not: v.Not})
	case *FuncExpr:
		return fn(&FuncExpr{Func: v.Func, Arg: Rewrite(v.Arg, fn), Star: v.Star})
	default:
		panic(fmt.Sprintf("sqlparse: Rewrite: unhandled node %T", e))
	}
}

// EachExpr calls fn with a pointer to every expression slot of the
// statement, in clause order: projections, WHERE, GROUP BY, HAVING, ORDER
// BY. Absent WHERE and HAVING slots are passed too (holding nil) so a
// rewriter can fill them. This is the one listing of a statement's
// expression-bearing clauses: read through it with Walk(*slot, ...), replace
// through it with *slot = Rewrite(*slot, ...).
func (s *SelectStmt) EachExpr(fn func(slot *Expr)) {
	for i := range s.Projections {
		fn(&s.Projections[i].Expr)
	}
	fn(&s.Where)
	for i := range s.GroupBy {
		fn(&s.GroupBy[i])
	}
	fn(&s.Having)
	for i := range s.OrderBy {
		fn(&s.OrderBy[i].Expr)
	}
}

// FirstParam returns the first parameter the statement still holds, in
// clause order with LIMIT last, or nil when every constant is bound. A
// statement it returns nil for is one the optimizer and executor can take.
func (s *SelectStmt) FirstParam() *Param {
	var found *Param
	s.EachExpr(func(slot *Expr) {
		Walk(*slot, func(n Expr) bool {
			if p, ok := n.(*Param); ok && found == nil {
				found = p
			}
			return found == nil
		})
	})
	if found == nil {
		found = s.LimitParam
	}
	return found
}
