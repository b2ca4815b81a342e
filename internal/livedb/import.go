package livedb

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sqlStatStatements pulls the workload of the current database, heaviest
// templates first. pg_stat_statements already normalizes literals to $n
// placeholders, so each row is one template with its call count.
const sqlStatStatements = "SELECT s.query, s.calls FROM pg_stat_statements s " +
	"JOIN pg_database d ON d.oid = s.dbid " +
	"WHERE d.datname = current_database() ORDER BY s.calls DESC, s.query"

// ImportOptions tunes workload import.
type ImportOptions struct {
	// MaxTemplates caps how many distinct templates are imported, heaviest
	// first (0 = 64).
	MaxTemplates int
	// MinCalls drops templates observed fewer times (0 = keep all).
	MinCalls int64
}

func (o ImportOptions) maxTemplates() int {
	if o.MaxTemplates <= 0 {
		return 64
	}
	return o.MaxTemplates
}

// SkippedQuery records one statement the importer could not use and why —
// the import must be auditable, not silently lossy.
type SkippedQuery struct {
	SQL    string
	Reason string
}

// ImportReport is the outcome of a workload import.
type ImportReport struct {
	// Source is "pg_stat_statements" or "file:<name>".
	Source string
	// Seen counts the statements examined.
	Seen int
	// Queries is the imported weighted workload, one representative
	// (placeholder-instantiated) query per template.
	Queries []workload.Query
	// Skipped lists rejected statements with reasons.
	Skipped []SkippedQuery
}

// Workload wraps the imported queries.
func (r *ImportReport) Workload() *workload.Workload {
	return &workload.Workload{Queries: r.Queries}
}

// ImportPgStatStatements imports the live workload from pg_stat_statements,
// deduplicating by literal-masked template and weighting by call count.
// Placeholders are instantiated from the snapshot's column statistics so
// the designer costs representative constants.
func ImportPgStatStatements(ctx context.Context, db *DB, snap *Snapshot, opts ImportOptions) (*ImportReport, error) {
	res, err := db.Query(ctx, sqlStatStatements)
	if err != nil {
		return nil, fmt.Errorf("livedb: import: %w (is pg_stat_statements in shared_preload_libraries?)", err)
	}
	type entry struct {
		sql   string
		calls int64
	}
	var entries []entry
	for _, r := range res.Rows {
		if len(r) < 2 {
			continue
		}
		calls, _ := strconv.ParseInt(r[1], 10, 64)
		if calls < 1 {
			calls = 1
		}
		entries = append(entries, entry{sql: r[0], calls: calls})
	}
	rep := &ImportReport{Source: "pg_stat_statements"}
	importEntries(rep, snap, opts, func(yield func(string, int64)) {
		for _, e := range entries {
			yield(e.sql, e.calls)
		}
	})
	return rep, nil
}

// ImportSQLFile imports a workload from raw SQL text (slow-query-log dump,
// migration script): statements split on top-level semicolons, repeated
// templates accumulate weight.
func ImportSQLFile(name string, text string, snap *Snapshot, opts ImportOptions) *ImportReport {
	rep := &ImportReport{Source: "file:" + name}
	importEntries(rep, snap, opts, func(yield func(string, int64)) {
		for _, stmt := range SplitStatements(text) {
			yield(stmt, 1)
		}
	})
	return rep
}

// importEntries runs the shared dedup + instantiate + resolve pipeline.
func importEntries(rep *ImportReport, snap *Snapshot, opts ImportOptions, each func(func(sql string, weight int64))) {
	type tmpl struct {
		first  string // first SQL text seen for this fingerprint
		weight int64
		order  int
	}
	templates := map[string]*tmpl{}
	each(func(sql string, weight int64) {
		sql = strings.TrimSpace(sql)
		if sql == "" {
			return
		}
		rep.Seen++
		fp := TemplateFingerprint(sql)
		if t := templates[fp]; t != nil {
			t.weight += weight
			return
		}
		templates[fp] = &tmpl{first: sql, weight: weight, order: len(templates)}
	})

	ordered := make([]*tmpl, 0, len(templates))
	for _, t := range templates {
		ordered = append(ordered, t)
	}
	// Heaviest templates first; arrival order breaks ties so the import is
	// deterministic for equal-weight templates.
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].weight != ordered[j].weight {
			return ordered[i].weight > ordered[j].weight
		}
		return ordered[i].order < ordered[j].order
	})

	for _, t := range ordered {
		if opts.MinCalls > 0 && t.weight < opts.MinCalls {
			continue
		}
		if len(rep.Queries) >= opts.maxTemplates() {
			rep.Skipped = append(rep.Skipped, SkippedQuery{SQL: t.first, Reason: "template cap reached"})
			continue
		}
		concrete, err := Instantiate(t.first, snap)
		if err != nil {
			rep.Skipped = append(rep.Skipped, SkippedQuery{SQL: t.first, Reason: err.Error()})
			continue
		}
		stmt, err := sqlparse.ParseSelect(concrete)
		if err != nil {
			rep.Skipped = append(rep.Skipped, SkippedQuery{SQL: t.first, Reason: err.Error()})
			continue
		}
		if err := sqlparse.Resolve(stmt, snap.Schema); err != nil {
			rep.Skipped = append(rep.Skipped, SkippedQuery{SQL: t.first, Reason: err.Error()})
			continue
		}
		rep.Queries = append(rep.Queries, workload.Query{
			ID:     fmt.Sprintf("live#%d", len(rep.Queries)),
			SQL:    concrete,
			Weight: float64(t.weight),
			Stmt:   stmt,
		})
	}
}

// SplitStatements splits SQL text on top-level semicolons, honoring quoted
// strings and stripping line comments.
func SplitStatements(text string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case inQuote:
			cur.WriteByte(c)
			if c == '\'' {
				inQuote = false
			}
		case c == '\'':
			inQuote = true
			cur.WriteByte(c)
		case c == '-' && i+1 < len(text) && text[i+1] == '-':
			for i < len(text) && text[i] != '\n' {
				i++
			}
		case c == ';':
			if s := strings.TrimSpace(cur.String()); s != "" {
				out = append(out, s)
			}
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		out = append(out, s)
	}
	return out
}

// TemplateFingerprint masks $n placeholders, string literals, and numbers,
// then normalizes whitespace and case: two statements with the same
// fingerprint are instances of one template.
func TemplateFingerprint(sql string) string {
	var b strings.Builder
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == '\'':
			// Skip the string literal (doubled quotes escape).
			j := i + 1
			for j < len(sql) {
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' {
						j += 2
						continue
					}
					break
				}
				j++
			}
			b.WriteByte('?')
			i = j + 1
		case c == '$' && i+1 < len(sql) && isDigit(sql[i+1]):
			j := i + 1
			for j < len(sql) && isDigit(sql[j]) {
				j++
			}
			b.WriteByte('?')
			i = j
		case isDigit(c) && (i == 0 || !isIdentChar(sql[i-1])):
			j := i
			for j < len(sql) && (isDigit(sql[j]) || sql[j] == '.' || sql[j] == 'e' ||
				(j > i && (sql[j] == '+' || sql[j] == '-') && (sql[j-1] == 'e' || sql[j-1] == 'E'))) {
				j++
			}
			b.WriteByte('?')
			i = j
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			for i < len(sql) && (sql[i] == ' ' || sql[i] == '\t' || sql[i] == '\n' || sql[i] == '\r') {
				i++
			}
			b.WriteByte(' ')
		default:
			b.WriteByte(byte(lowerASCII(c)))
			i++
		}
	}
	return strings.TrimSpace(b.String())
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentChar(c byte) bool {
	return c == '_' || isDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// sentinelBase marks substituted placeholders inside the parsed AST: $n
// becomes the integer literal sentinelBase-n, far outside any plausible
// data domain, then the AST walk swaps each sentinel for a statistics-
// driven constant.
const sentinelBase int64 = -9_000_000_001

// Instantiate replaces $n placeholders with representative constants drawn
// from the snapshot's statistics: equality predicates get the most common
// value, range bounds get histogram quartiles. Statements without
// placeholders pass through unchanged.
func Instantiate(sql string, snap *Snapshot) (string, error) {
	if !strings.Contains(sql, "$") {
		return sql, nil
	}
	masked, count := maskPlaceholders(sql)
	if count == 0 {
		return sql, nil
	}
	stmt, err := sqlparse.ParseSelect(masked)
	if err != nil {
		return "", fmt.Errorf("parameterized statement: %w", err)
	}
	if err := sqlparse.Resolve(stmt, snap.Schema); err != nil {
		return "", fmt.Errorf("parameterized statement: %w", err)
	}
	replacePlaceholders(stmt, snap)
	// Resolve left the statement in canonical form, so its rendering parses
	// and resolves again. A sentinel that survived the walk sits in a
	// position the instantiator doesn't understand (e.g. a projection
	// expression); reject rather than emit a nonsense constant.
	rendered := stmt.String()
	if strings.Contains(rendered, strconv.FormatInt(sentinelBase, 10)[:8]) {
		return "", fmt.Errorf("placeholder in unsupported position")
	}
	return rendered, nil
}

// maskPlaceholders rewrites $1..$n as sentinel integer literals.
func maskPlaceholders(sql string) (string, int) {
	var b strings.Builder
	count := 0
	i := 0
	for i < len(sql) {
		c := sql[i]
		if c == '\'' {
			j := i + 1
			for j < len(sql) && sql[j] != '\'' {
				j++
			}
			b.WriteString(sql[i:min(j+1, len(sql))])
			i = j + 1
			continue
		}
		if c == '$' && i+1 < len(sql) && isDigit(sql[i+1]) {
			j := i + 1
			for j < len(sql) && isDigit(sql[j]) {
				j++
			}
			n, _ := strconv.ParseInt(sql[i+1:j], 10, 64)
			b.WriteString(strconv.FormatInt(sentinelBase-n, 10))
			count++
			i = j
			continue
		}
		b.WriteByte(c)
		i++
	}
	return b.String(), count
}

func isSentinel(e sqlparse.Expr) *sqlparse.Literal {
	l, ok := e.(*sqlparse.Literal)
	if !ok || l.Value.Kind != catalog.KindInt || l.Value.I > sentinelBase {
		return nil
	}
	return l
}

// replacePlaceholders substitutes the sentinel literals of the WHERE and
// HAVING trees with constants chosen from column statistics, wherever a
// sentinel is compared with a column: col OP $n (either way round), col
// BETWEEN $n AND $m, col IN ($n, ...).
func replacePlaceholders(stmt *sqlparse.SelectStmt, snap *Snapshot) {
	set := func(e sqlparse.Expr, col *sqlparse.ColumnRef, role valueRole) {
		if l := isSentinel(e); l != nil {
			l.Value = pickValue(snap, col, role)
		}
	}
	visit := func(e sqlparse.Expr) bool {
		switch v := e.(type) {
		case *sqlparse.BinaryExpr:
			if col, ok := v.L.(*sqlparse.ColumnRef); ok {
				set(v.R, col, roleForOp(v.Op))
			} else if col, ok := v.R.(*sqlparse.ColumnRef); ok {
				set(v.L, col, flipRole(roleForOp(v.Op)))
			}
		case *sqlparse.BetweenExpr:
			if col, ok := v.E.(*sqlparse.ColumnRef); ok {
				set(v.Lo, col, roleLo)
				set(v.Hi, col, roleHi)
			}
		case *sqlparse.InExpr:
			if col, ok := v.E.(*sqlparse.ColumnRef); ok {
				for _, item := range v.List {
					set(item, col, roleEq)
				}
			}
		}
		return true
	}
	sqlparse.Walk(stmt.Where, visit)
	sqlparse.Walk(stmt.Having, visit)
}

type valueRole int

const (
	roleEq valueRole = iota
	roleLo           // lower bound of a range (col > $n)
	roleHi           // upper bound of a range (col < $n)
)

func roleForOp(op sqlparse.BinOp) valueRole {
	switch op {
	case sqlparse.OpGt, sqlparse.OpGe:
		return roleLo
	case sqlparse.OpLt, sqlparse.OpLe:
		return roleHi
	default:
		return roleEq
	}
}

func flipRole(r valueRole) valueRole {
	switch r {
	case roleLo:
		return roleHi
	case roleHi:
		return roleLo
	default:
		return roleEq
	}
}

// pickValue chooses a representative constant for a predicate on col:
// equality takes the most common value, range bounds take the 25%/75%
// histogram quantiles, with fallbacks down to a type-appropriate zero.
func pickValue(snap *Snapshot, col *sqlparse.ColumnRef, role valueRole) catalog.Datum {
	var cs *stats.ColumnStats
	if ts := snap.Stats.Table(col.Table); ts != nil {
		cs = ts.Column(col.Column)
	}
	kind := catalog.KindInt
	if t := snap.Schema.Table(col.Table); t != nil {
		if c := t.Column(col.Column); c != nil {
			kind = c.Type
		}
	}
	if cs != nil {
		switch role {
		case roleEq:
			if len(cs.MCVs) > 0 {
				return cs.MCVs[0].Value
			}
			if q := quantile(cs, 0.5); !q.IsNull() {
				return q
			}
		case roleLo:
			if q := quantile(cs, 0.25); !q.IsNull() {
				return q
			}
		case roleHi:
			if q := quantile(cs, 0.75); !q.IsNull() {
				return q
			}
		}
		if !cs.Min.IsNull() {
			return cs.Min
		}
	}
	switch kind {
	case catalog.KindFloat:
		return catalog.Float(0)
	case catalog.KindString:
		return catalog.String_("a")
	default:
		return catalog.Int(0)
	}
}

func quantile(cs *stats.ColumnStats, q float64) catalog.Datum {
	if cs.Hist == nil || len(cs.Hist.Bounds) == 0 {
		return catalog.Null()
	}
	i := int(q * float64(len(cs.Hist.Bounds)-1))
	return cs.Hist.Bounds[i]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
