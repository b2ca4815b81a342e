package sqlparse

import (
	"strconv"
	"strings"

	"repro/internal/catalog"
)

// parser is a recursive-descent parser that pulls one token at a time from
// its lexer: tok is the lookahead, the only token the grammar needs. When
// the lexer fails, tok is a tokError at the failure and err is the lexer's
// error, which every error raised there reports.
type parser struct {
	lx  lexer
	tok token
	err error
}

// newParser returns a parser on src's first token. It is a value: a parser
// lives on its caller's stack.
func newParser(src string) parser {
	p := parser{lx: lexer{src: src}}
	p.read()
	return p
}

// Parse parses a single SQL statement (SELECT or CREATE ...). A trailing
// semicolon is permitted.
func Parse(src string) (Statement, error) {
	p := newParser(src)
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errHere("unexpected trailing input %q", p.peek().val)
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, errorAt(src, 0, "expected a SELECT statement")
	}
	return sel, nil
}

// ParseAggregate parses one aggregate call — COUNT(*), or one of the
// supported aggregates over an expression — such as a materialized view
// stores.
func ParseAggregate(src string) (*FuncExpr, error) {
	p := newParser(src)
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	f, ok := e.(*FuncExpr)
	if !ok {
		return nil, errorAt(src, 0, "expected an aggregate call")
	}
	if !p.atEOF() {
		return nil, p.errHere("unexpected trailing input %q", p.peek().val)
	}
	return f, nil
}

// ParseScript parses a semicolon-separated sequence of statements, ignoring
// blank statements and line comments.
func ParseScript(src string) ([]Statement, error) {
	p := newParser(src)
	var out []Statement
	for !p.atEOF() {
		if p.acceptSymbol(";") {
			continue
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if !p.acceptSymbol(";") && !p.atEOF() {
			return nil, p.errHere("expected ';' between statements")
		}
	}
	return out, nil
}

func (p *parser) peek() token { return p.tok }
func (p *parser) atEOF() bool { return p.tok.kind == tokEOF }

// advance consumes the lookahead and returns it. EOF and a lexer failure
// are never consumed.
func (p *parser) advance() token {
	t := p.tok
	if t.kind != tokEOF && t.kind != tokError {
		p.read()
	}
	return t
}

// read pulls the next token into the lookahead.
func (p *parser) read() {
	if p.tok, p.err = p.lx.next(); p.err != nil {
		p.tok = token{kind: tokError}
	}
}

// errHere reports an error at the lookahead; at a lexer failure, the
// lexer's own error.
func (p *parser) errHere(format string, args ...any) error {
	if p.err != nil {
		return p.err
	}
	return errorAt(p.lx.src, p.tok.pos, format, args...)
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.val == kw {
		p.advance()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or errors.
func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errHere("expected %s, found %q", kw, p.peek().val)
	}
	return nil
}

// acceptSymbol consumes the symbol if present.
func (p *parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.val == sym {
		p.advance()
		return true
	}
	return false
}

// expectSymbol consumes the symbol or errors.
func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errHere("expected %q, found %q", sym, p.peek().val)
	}
	return nil
}

// expectIdent consumes and returns an identifier.
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errHere("expected identifier, found %q", t.val)
	}
	p.advance()
	return t.val, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch t := p.peek(); {
	case t.kind == tokKeyword && t.val == "SELECT":
		return p.parseSelect()
	case t.kind == tokKeyword && t.val == "CREATE":
		return p.parseCreate()
	default:
		return nil, p.errHere("expected SELECT or CREATE, found %q", t.val)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	sel.Distinct = p.acceptKeyword("DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Projections = append(sel.Projections, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	var onPredicates []Expr
	ref, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel.From = append(sel.From, ref)
	for {
		switch {
		case p.acceptSymbol(","):
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
		case p.peekJoin():
			p.acceptKeyword("INNER")
			p.acceptKeyword("CROSS")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if p.acceptKeyword("ON") {
				pred, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				onPredicates = append(onPredicates, pred)
			}
		default:
			goto fromDone
		}
	}
fromDone:

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	// Fold JOIN ... ON predicates into WHERE (inner-join normalization).
	for _, pred := range onPredicates {
		if sel.Where == nil {
			sel.Where = pred
		} else {
			sel.Where = &BinaryExpr{Op: OpAnd, L: sel.Where, R: pred}
		}
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		switch t := p.peek(); t.kind {
		case tokParam:
			sel.LimitParam = p.parseParam()
		case tokNumber:
			n, err := strconv.ParseInt(t.val, 10, 64)
			if err != nil {
				return nil, p.errHere("bad LIMIT value %q", t.val)
			}
			p.advance()
			sel.Limit = n
		default:
			return nil, p.errHere("expected number after LIMIT")
		}
	}
	return sel, nil
}

// peekJoin reports whether the upcoming tokens begin a JOIN clause.
func (p *parser) peekJoin() bool {
	t := p.peek()
	if t.kind != tokKeyword {
		return false
	}
	return t.val == "JOIN" || t.val == "INNER" || t.val == "CROSS"
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Expr: &StarExpr{}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent {
		p.advance()
		item.Alias = t.val
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent {
		p.advance()
		ref.Alias = t.val
	}
	return ref, nil
}

// parseExpr climbs the expression grammar of the package comment, one
// function per level.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	switch {
	case t.kind == tokSymbol && isCmp(t.val):
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: BinOp(t.val), L: l, R: r}, nil
	case t.kind == tokKeyword && t.val == "BETWEEN":
		p.advance()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi}, nil
	case t.kind == tokKeyword && t.val == "IN":
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list}, nil
	case t.kind == tokKeyword && t.val == "IS":
		p.advance()
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: not}, nil
	}
	return l, nil
}

func isCmp(s string) bool {
	switch s {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.val == "+" || t.val == "-") {
			p.advance()
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: BinOp(t.val), L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.val == "*" || t.val == "/") {
			p.advance()
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: BinOp(t.val), L: l, R: r}
			continue
		}
		return l, nil
	}
}

var aggNames = map[string]AggFunc{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		var v catalog.Datum
		if strings.ContainsAny(t.val, ".eE") {
			f, err := strconv.ParseFloat(t.val, 64)
			if err != nil {
				return nil, p.errHere("bad number %q", t.val)
			}
			v = catalog.Float(f)
		} else {
			n, err := strconv.ParseInt(t.val, 10, 64)
			if err != nil {
				return nil, p.errHere("bad number %q", t.val)
			}
			v = catalog.Int(n)
		}
		p.advance()
		return &Literal{Value: v}, nil

	case t.kind == tokString:
		p.advance()
		return &Literal{Value: catalog.String_(t.val)}, nil

	case t.kind == tokParam:
		return p.parseParam(), nil

	case t.kind == tokKeyword && t.val == "NULL":
		p.advance()
		return &Literal{Value: catalog.Null()}, nil

	case t.kind == tokKeyword && aggNames[t.val] != "":
		fn := aggNames[t.val]
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if p.acceptSymbol("*") {
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &FuncExpr{Func: fn, Star: true}, nil
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &FuncExpr{Func: fn, Arg: arg}, nil

	case t.kind == tokSymbol && t.val == "(":
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.kind == tokSymbol && t.val == "-":
		p.advance()
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if lit, ok := inner.(*Literal); ok {
			switch lit.Value.Kind {
			case catalog.KindInt:
				return &Literal{Value: catalog.Int(-lit.Value.I)}, nil
			case catalog.KindFloat:
				// 0 - f, not -f: "-0.0" is the constant 0, not a negative
				// zero that renders as "-0" and parses back as an integer.
				return &Literal{Value: catalog.Float(0 - lit.Value.F)}, nil
			}
		}
		return &BinaryExpr{Op: OpSub, L: &Literal{Value: catalog.Int(0)}, R: inner}, nil

	case t.kind == tokIdent:
		p.advance()
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.val, Column: col}, nil
		}
		return &ColumnRef{Column: t.val}, nil

	default:
		return nil, p.errHere("unexpected token %q in expression", t.val)
	}
}

// parseParam consumes a parameter token.
func (p *parser) parseParam() *Param {
	t := p.advance()
	return &Param{Name: t.val, src: p.lx.src, pos: t.pos}
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	unique := p.acceptKeyword("UNIQUE")
	switch {
	case p.acceptKeyword("TABLE"):
		if unique {
			return nil, p.errHere("UNIQUE is not valid before TABLE")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique)
	default:
		return nil, p.errHere("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name}
	for {
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				stmt.PrimaryKey = append(stmt.PrimaryKey, col)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			kind, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, ColumnDef{Name: col, Type: kind})
			// Optional inline PRIMARY KEY.
			if p.acceptKeyword("PRIMARY") {
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				stmt.PrimaryKey = append(stmt.PrimaryKey, col)
			}
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseTypeName() (catalog.Kind, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return catalog.KindNull, p.errHere("expected type name, found %q", t.val)
	}
	var kind catalog.Kind
	switch t.val {
	case "BIGINT", "INT", "INTEGER":
		kind = catalog.KindInt
	case "DOUBLE", "FLOAT", "REAL":
		kind = catalog.KindFloat
	case "TEXT", "VARCHAR":
		kind = catalog.KindString
	default:
		return catalog.KindNull, p.errHere("unknown type %q", t.val)
	}
	p.advance()
	// Optional (n) length suffix, ignored.
	if p.acceptSymbol("(") {
		if p.peek().kind == tokNumber {
			p.advance()
		}
		if err := p.expectSymbol(")"); err != nil {
			return catalog.KindNull, err
		}
	}
	return kind, nil
}

func (p *parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	stmt := &CreateIndexStmt{Name: name, Table: table, Unique: unique}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		stmt.Columns = append(stmt.Columns, col)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}
