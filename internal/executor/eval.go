// Package executor runs optimizer plans against the storage layer. It
// exists for two reasons: the demo scenarios actually execute queries, and
// the test suite validates the optimizer's cost model by comparing
// estimated page I/O against the IOCounter charged here (the
// "estimated-vs-executed" check).
package executor

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// ColID names one column of an intermediate result.
type ColID struct {
	Table  string // lower-case
	Column string // lower-case
}

// String renders table.column.
func (c ColID) String() string { return c.Table + "." + c.Column }

// rowSchema maps column identities to positions in execution rows.
type rowSchema struct {
	cols []ColID
	pos  map[ColID]int
}

func newRowSchema(cols []ColID) *rowSchema {
	rs := &rowSchema{cols: cols, pos: make(map[ColID]int, len(cols))}
	for i, c := range cols {
		rs.pos[c] = i
	}
	return rs
}

// lookup finds the position of table.column; table may be empty only if the
// column is unambiguous.
func (rs *rowSchema) lookup(table, column string) (int, error) {
	if table != "" {
		key := ColID{Table: strings.ToLower(table), Column: strings.ToLower(column)}
		if p, ok := rs.pos[key]; ok {
			return p, nil
		}
		return 0, fmt.Errorf("executor: column %s not in row schema", key)
	}
	found := -1
	for i, c := range rs.cols {
		if c.Column == strings.ToLower(column) {
			if found >= 0 {
				return 0, fmt.Errorf("executor: ambiguous column %q", column)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("executor: column %q not in row schema", column)
	}
	return found, nil
}

// concat merges two schemas (join output).
func (rs *rowSchema) concat(o *rowSchema) *rowSchema {
	cols := make([]ColID, 0, len(rs.cols)+len(o.cols))
	cols = append(cols, rs.cols...)
	cols = append(cols, o.cols...)
	return newRowSchema(cols)
}

// evalExpr evaluates a scalar expression against one row. SQL three-valued
// logic is approximated: comparisons involving NULL yield NULL, which is
// treated as false by filters.
func evalExpr(e sqlparse.Expr, rs *rowSchema, row catalog.Row) (catalog.Datum, error) {
	switch v := e.(type) {
	case *sqlparse.Literal:
		return v.Value, nil
	case *sqlparse.ColumnRef:
		p, err := rs.lookup(v.Table, v.Column)
		if err != nil {
			return catalog.Null(), err
		}
		return row[p], nil
	case *sqlparse.BinaryExpr:
		return evalBinary(v, rs, row)
	case *sqlparse.NotExpr:
		d, err := evalExpr(v.E, rs, row)
		if err != nil {
			return catalog.Null(), err
		}
		if d.IsNull() {
			return catalog.Null(), nil
		}
		return boolDatum(!truthy(d)), nil
	case *sqlparse.BetweenExpr:
		x, err := evalExpr(v.E, rs, row)
		if err != nil {
			return catalog.Null(), err
		}
		lo, err := evalExpr(v.Lo, rs, row)
		if err != nil {
			return catalog.Null(), err
		}
		hi, err := evalExpr(v.Hi, rs, row)
		if err != nil {
			return catalog.Null(), err
		}
		if x.IsNull() || lo.IsNull() || hi.IsNull() {
			return catalog.Null(), nil
		}
		return boolDatum(x.Compare(lo) >= 0 && x.Compare(hi) <= 0), nil
	case *sqlparse.InExpr:
		x, err := evalExpr(v.E, rs, row)
		if err != nil {
			return catalog.Null(), err
		}
		if x.IsNull() {
			return catalog.Null(), nil
		}
		for _, item := range v.List {
			d, err := evalExpr(item, rs, row)
			if err != nil {
				return catalog.Null(), err
			}
			if !d.IsNull() && x.Equal(d) {
				return boolDatum(true), nil
			}
		}
		return boolDatum(false), nil
	case *sqlparse.IsNullExpr:
		x, err := evalExpr(v.E, rs, row)
		if err != nil {
			return catalog.Null(), err
		}
		return boolDatum(x.IsNull() != v.Not), nil
	case *sqlparse.FuncExpr:
		return catalog.Null(), fmt.Errorf("executor: aggregate %s outside aggregation context", v.Func)
	case *sqlparse.StarExpr:
		return catalog.Null(), errors.New("executor: * is not a scalar expression")
	default:
		return catalog.Null(), fmt.Errorf("executor: unhandled expression %T", e)
	}
}

func evalBinary(v *sqlparse.BinaryExpr, rs *rowSchema, row catalog.Row) (catalog.Datum, error) {
	switch v.Op {
	case sqlparse.OpAnd:
		l, err := evalExpr(v.L, rs, row)
		if err != nil {
			return catalog.Null(), err
		}
		if !l.IsNull() && !truthy(l) {
			return boolDatum(false), nil
		}
		r, err := evalExpr(v.R, rs, row)
		if err != nil {
			return catalog.Null(), err
		}
		if !r.IsNull() && !truthy(r) {
			return boolDatum(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return catalog.Null(), nil
		}
		return boolDatum(true), nil
	case sqlparse.OpOr:
		l, err := evalExpr(v.L, rs, row)
		if err != nil {
			return catalog.Null(), err
		}
		if !l.IsNull() && truthy(l) {
			return boolDatum(true), nil
		}
		r, err := evalExpr(v.R, rs, row)
		if err != nil {
			return catalog.Null(), err
		}
		if !r.IsNull() && truthy(r) {
			return boolDatum(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return catalog.Null(), nil
		}
		return boolDatum(false), nil
	}

	l, err := evalExpr(v.L, rs, row)
	if err != nil {
		return catalog.Null(), err
	}
	r, err := evalExpr(v.R, rs, row)
	if err != nil {
		return catalog.Null(), err
	}
	if l.IsNull() || r.IsNull() {
		return catalog.Null(), nil
	}
	if v.Op.IsComparison() {
		c := l.Compare(r)
		switch v.Op {
		case sqlparse.OpEq:
			return boolDatum(c == 0), nil
		case sqlparse.OpNe:
			return boolDatum(c != 0), nil
		case sqlparse.OpLt:
			return boolDatum(c < 0), nil
		case sqlparse.OpLe:
			return boolDatum(c <= 0), nil
		case sqlparse.OpGt:
			return boolDatum(c > 0), nil
		case sqlparse.OpGe:
			return boolDatum(c >= 0), nil
		}
	}
	// Arithmetic.
	switch v.Op {
	case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv:
		if l.Kind == catalog.KindInt && r.Kind == catalog.KindInt && v.Op != sqlparse.OpDiv {
			switch v.Op {
			case sqlparse.OpAdd:
				return catalog.Int(l.I + r.I), nil
			case sqlparse.OpSub:
				return catalog.Int(l.I - r.I), nil
			case sqlparse.OpMul:
				return catalog.Int(l.I * r.I), nil
			}
		}
		lf, rf := l.AsFloat(), r.AsFloat()
		switch v.Op {
		case sqlparse.OpAdd:
			return catalog.Float(lf + rf), nil
		case sqlparse.OpSub:
			return catalog.Float(lf - rf), nil
		case sqlparse.OpMul:
			return catalog.Float(lf * rf), nil
		case sqlparse.OpDiv:
			if rf == 0 {
				return catalog.Null(), nil
			}
			return catalog.Float(lf / rf), nil
		}
	}
	return catalog.Null(), fmt.Errorf("executor: unhandled operator %s", v.Op)
}

func boolDatum(b bool) catalog.Datum {
	if b {
		return catalog.Int(1)
	}
	return catalog.Int(0)
}

func truthy(d catalog.Datum) bool {
	switch d.Kind {
	case catalog.KindInt:
		return d.I != 0
	case catalog.KindFloat:
		return d.F != 0
	case catalog.KindString:
		return d.S != ""
	default:
		return false
	}
}

// passesAll evaluates a conjunct list; NULL results count as false.
func passesAll(filters []sqlparse.Expr, rs *rowSchema, row catalog.Row) (bool, error) {
	for _, f := range filters {
		d, err := evalExpr(f, rs, row)
		if err != nil {
			return false, err
		}
		if d.IsNull() || !truthy(d) {
			return false, nil
		}
	}
	return true, nil
}
