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
// reduces a statement to its shape — and does not scan the text again. The
// parser pulls its tokens one at a time (the grammar is LL(1)), so no token
// list is built, and a token's text is a slice of the source or an interned
// keyword: parsing allocates the tree and little else. A lexer failure is a
// token that matches nothing, so the error reported is the first one in
// source order, whether the lexer's or the parser's.
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
// statements on and the facade hands back as SQL.
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
	"unicode/utf8"
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
	tokError   // what the lexer refused; the parser matches nothing to it
)

// token is one lexeme with its source position (byte offset).
type token struct {
	kind tokenKind
	val  string
	pos  int
}

// keywords maps each reserved word to itself, so that a lookup by scratch
// bytes hands back the interned string.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range strings.Fields(`SELECT FROM WHERE AND OR NOT GROUP BY
		ORDER ASC DESC LIMIT AS JOIN INNER ON BETWEEN IN IS NULL LIKE DISTINCT
		CREATE TABLE INDEX PRIMARY KEY UNIQUE BIGINT INT INTEGER DOUBLE FLOAT
		REAL TEXT VARCHAR COUNT SUM AVG MIN MAX HAVING CROSS`) {
		m[kw] = kw
	}
	return m
}()

// keyword returns the reserved word that word spells in any letter case,
// under strings.ToUpper's rule. An ASCII word is upper-cased into a buffer
// on the stack, which is as long as the longest keyword, so the lookup
// allocates nothing. A word with a non-ASCII byte takes strings.ToUpper
// itself, and is tested for first: "diſtinct" is nine bytes and DISTINCT.
func keyword(word string) (string, bool) {
	for i := 0; i < len(word); i++ {
		if word[i] >= utf8.RuneSelf {
			kw, ok := keywords[strings.ToUpper(word)]
			return kw, ok
		}
	}
	var buf [8]byte
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
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
		if kw, ok := keyword(word); ok {
			return token{kind: tokKeyword, val: kw, pos: start}, nil
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
		doubled := false
		for {
			if l.pos >= len(l.src) {
				return token{}, errorAt(l.src, start, "unterminated string literal")
			}
			if l.src[l.pos] == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					doubled = true
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			l.pos++
		}
		val := l.src[start+1 : l.pos-1]
		if doubled {
			val = strings.ReplaceAll(val, "''", "'")
		}
		return token{kind: tokString, val: val, pos: start}, nil

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
			return token{kind: tokSymbol, val: l.src[start:l.pos], pos: start}, nil
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
