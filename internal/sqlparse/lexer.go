// Package sqlparse implements the SQL dialect the designer consumes: single
// block SELECT queries with inner joins, grouping, ordering and limits, plus
// the CREATE TABLE / CREATE INDEX DDL used to load schemas. The parser
// produces a typed AST; analysis helpers extract the predicate structure
// (conjuncts, referenced columns, join edges) that the advisors feed on.
//
// The accepted grammar, as EBNF (keywords are case-insensitive, "--" starts a
// line comment, a string is single-quoted and doubles a quote it contains):
//
//	script     := (statement? ';')* statement?
//	statement  := select | create-table | create-index
//
//	select     := SELECT DISTINCT? item (',' item)*
//	              FROM table-ref (',' table-ref | join)*
//	              (WHERE expr)?
//	              (GROUP BY expr (',' expr)*)?
//	              (HAVING expr)?
//	              (ORDER BY expr (ASC | DESC)? (',' expr (ASC | DESC)?)*)?
//	              (LIMIT (INT | param))?
//	item       := '*' | expr (AS? ID)?
//	table-ref  := ID (AS? ID)?
//	join       := INNER? CROSS? JOIN table-ref (ON expr)?
//
//	expr       := and (OR and)*
//	and        := not (AND not)*
//	not        := NOT not | predicate
//	predicate  := additive ( cmp additive
//	                       | BETWEEN additive AND additive
//	                       | IN '(' additive (',' additive)* ')'
//	                       | IS NOT? NULL )?
//	cmp        := '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='
//	additive   := term (('+' | '-') term)*
//	term       := primary (('*' | '/') primary)*
//	primary    := NUMBER | STRING | NULL | param | ID ('.' ID)? | agg | '(' expr ')' | '-' primary
//	param      := '$' DIGIT+
//	agg        := (COUNT | SUM | AVG | MIN | MAX) '(' ('*' | expr) ')'
//
//	create-table := CREATE TABLE ID '(' column-or-key (',' column-or-key)* ')'
//	column-or-key := ID type (PRIMARY KEY)? | PRIMARY KEY '(' ID (',' ID)* ')'
//	type       := (BIGINT | INT | INTEGER | DOUBLE | FLOAT | REAL | TEXT | VARCHAR) ('(' INT? ')')?
//	create-index := CREATE UNIQUE? INDEX ID ON ID '(' ID (',' ID)* ')'
//
// JOIN ... ON predicates are AND-ed into WHERE at parse time, and "- x" is
// read as the constant -x or as 0 - x.
//
// One reader. The lexer in this file is the only code that reads SQL bytes:
// what a string, a comment, a number or a parameter is gets decided here and
// nowhere else. Whoever needs less than a tree takes it from the token
// stream — SplitScript cuts a script at its top-level ';' tokens, Template
// reduces a statement to its shape — and does not scan the text again.
//
// Parameters. $n is a token and a leaf node (Param), rendered as $n, so a
// statement normalized by pg_stat_statements parses as itself. A parameter
// has no value: whoever turns a statement into a workload query binds every
// one (internal/livedb, from column statistics) or refuses the statement
// (SelectStmt.FirstParam finds what is left).
//
// Template. Template(sql) is the statement's token stream with every string,
// number and parameter token written "?", keywords upper-cased, identifiers
// lower-cased and one space between tokens. Two texts with one template
// differ only in constants, letter case, white space, comments and operator
// spelling ("!=" is "<>"). It is defined for whatever lexes, parseable or
// not; for text that does not lex it is the trimmed text.
//
// Canonical form. String() renders any tree with the parentheses its
// operands need, so the text parses back into a tree of the same shape (a
// right-nested AND or OR chain, which associates, comes back left-nested)
// and renders to itself. Resolve qualifies every column reference with its
// real table name and clears the FROM aliases, so String() of a resolved
// statement parses and resolves to itself — the text INUM matches re-parsed
// statements on, record/replay keys on, and the facade hands back as SQL.
// (Resolve refuses a self-join: with the aliases cleared both copies'
// references would carry the one table name.) FuzzParseRenderParse holds
// both properties.
//
// Traversal. Walk (pre-order, prunable), Rewrite (bottom-up, rebuilding) and
// SelectStmt.EachExpr (the statement's expression slots: projections, WHERE,
// GROUP BY, HAVING, ORDER BY) are the only code that knows a node's children
// or a statement's clauses; every other pass, in this package and outside
// it, is a visitor handed to them. A type switch elsewhere interprets one
// node (evaluation, selectivity, rendering, shape matches); it does not
// descend.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokParam   // $n
	tokSymbol  // punctuation and operators
	tokKeyword // reserved word (upper-cased in val)
)

// token is one lexeme with its source position (byte offset).
type token struct {
	kind tokenKind
	val  string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "GROUP": true, "BY": true, "ORDER": true, "ASC": true,
	"DESC": true, "LIMIT": true, "AS": true, "JOIN": true, "INNER": true,
	"ON": true, "BETWEEN": true, "IN": true, "IS": true, "NULL": true,
	"LIKE": true, "DISTINCT": true, "CREATE": true, "TABLE": true,
	"INDEX": true, "PRIMARY": true, "KEY": true, "UNIQUE": true,
	"BIGINT": true, "INT": true, "INTEGER": true, "DOUBLE": true,
	"FLOAT": true, "REAL": true, "TEXT": true, "VARCHAR": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"HAVING": true, "CROSS": true,
}

// lexer walks the input producing tokens.
type lexer struct {
	src string
	pos int
}

// errorAt formats a lexing/parsing error with line/column context.
func errorAt(src string, pos int, format string, args ...any) error {
	line, col := 1, 1
	for i := 0; i < pos && i < len(src); i++ {
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("sql:%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

// whitespace is what skipSpace skips besides comments.
const whitespace = " \t\n\r"

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		word := l.src[start:l.pos]
		upper := strings.ToUpper(word)
		if keywords[upper] {
			return token{kind: tokKeyword, val: upper, pos: start}, nil
		}
		return token{kind: tokIdent, val: word, pos: start}, nil

	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		seenDot, seenExp := false, false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch >= '0' && ch <= '9' {
				l.pos++
				continue
			}
			if ch == '.' && !seenDot && !seenExp {
				seenDot = true
				l.pos++
				continue
			}
			if (ch == 'e' || ch == 'E') && !seenExp {
				seenExp = true
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
				continue
			}
			break
		}
		return token{kind: tokNumber, val: l.src[start:l.pos], pos: start}, nil

	case c == '$' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
		return token{kind: tokParam, val: l.src[start:l.pos], pos: start}, nil

	case c == '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, errorAt(l.src, start, "unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return token{kind: tokString, val: sb.String(), pos: start}, nil

	default:
		// Multi-char operators first.
		for _, op := range []string{"<=", ">=", "<>", "!="} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += len(op)
				v := op
				if op == "!=" {
					v = "<>"
				}
				return token{kind: tokSymbol, val: v, pos: start}, nil
			}
		}
		if strings.ContainsRune("(),.*=<>+-/%;", rune(c)) {
			l.pos++
			return token{kind: tokSymbol, val: string(c), pos: start}, nil
		}
		return token{}, errorAt(l.src, l.pos, "unexpected character %q", c)
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// lexAll tokenizes the whole input (convenient for the recursive-descent
// parser, which needs small lookahead).
func lexAll(src string) ([]token, error) {
	lx := &lexer{src: src}
	var out []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

// SplitScript cuts a script at its top-level ';' tokens and returns the
// source text of each statement, first token to last: a ';' inside a string
// or a comment cuts nothing, empty statements are dropped, a comment between
// two tokens stays in the slice. Nothing is parsed, so a statement the grammar
// lacks does not fail the script, and neither does a character the lexer
// lacks: it is stepped over and stays in its statement, which Parse refuses
// with the lexer's message while the cutting goes on. Only a string left
// open runs to the end of the text, as the last statement. Joining the
// result with ";" and splitting again returns it.
func SplitScript(src string) []string {
	lx := &lexer{src: src}
	var out []string
	start, end := -1, 0 // the open statement is src[start:end]; none when start < 0
	for {
		lx.skipSpace()
		pos := lx.pos
		t, err := lx.next()
		cut := err == nil && (t.kind == tokEOF || t.kind == tokSymbol && t.val == ";")
		if !cut && start < 0 {
			start = pos // a statement opens at this token, lexable or not
		}
		switch {
		case err != nil && lx.pos >= len(src): // unterminated string
			return append(out, strings.TrimRight(src[start:], whitespace))
		case err != nil: // unexpected character: lx.pos is on it
			lx.pos++
			fallthrough
		case !cut:
			end = lx.pos
			continue
		case start >= 0:
			out = append(out, src[start:end])
			start = -1
		}
		if t.kind == tokEOF {
			return out
		}
	}
}

// Template reduces a statement to its shape (the package comment defines
// it): statements with one template are instances of one query template.
func Template(sql string) string {
	lx := &lexer{src: sql}
	var b strings.Builder
	for {
		t, err := lx.next()
		if err != nil {
			return strings.Trim(sql, whitespace)
		}
		if t.kind == tokEOF {
			return b.String()
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case tokNumber, tokString, tokParam:
			b.WriteByte('?')
		case tokIdent:
			b.WriteString(strings.ToLower(t.val))
		default:
			b.WriteString(t.val)
		}
	}
}
