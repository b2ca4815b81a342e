package livedb

import (
	"context"
	"fmt"
	"sort"
	"strconv"

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
	entries := make([]entry, 0, len(res.Rows))
	for _, r := range res.Rows {
		if len(r) < 2 {
			continue
		}
		calls, _ := strconv.ParseInt(r[1], 10, 64)
		entries = append(entries, entry{sql: r[0], calls: max(calls, 1)})
	}
	return importEntries("pg_stat_statements", snap, opts, entries), nil
}

// ImportSQLFile imports a workload from raw SQL text (slow-query-log dump,
// migration script): statements cut at top-level semicolons, repeated
// templates accumulate weight.
func ImportSQLFile(name string, text string, snap *Snapshot, opts ImportOptions) *ImportReport {
	return importEntries("file:"+name, snap, opts, []entry{{sql: text, calls: 1}})
}

// entry is a SQL text and how often it ran: what the importer is handed.
type entry struct {
	sql   string
	calls int64
}

// template is what the importer keeps of one: the calls of its texts summed
// and a representative — the first text that instantiates, with what it
// gave, or else the first text seen, with why not. Arrival order among a
// template's texts decides neither whether it is imported nor its weight.
type template struct {
	entry
	stmt     *sqlparse.SelectStmt
	concrete string
	err      error
}

// importEntries runs the shared split + dedup + instantiate pipeline; a file
// is one entry that ran once. Every text is cut into statements by
// sqlparse.SplitScript (a pg_stat_statements row is a script of one) and
// grouped by sqlparse.Template, which is defined for whatever lexes: a
// statement the designer cannot use is still one template, skipped once.
func importEntries(source string, snap *Snapshot, opts ImportOptions, entries []entry) *ImportReport {
	rep := &ImportReport{Source: source}
	templates := map[string]*template{}
	var ordered []*template
	for _, e := range entries {
		for _, sql := range sqlparse.SplitScript(e.sql) {
			rep.Seen++
			key := sqlparse.Template(sql)
			t := templates[key]
			if t == nil || t.err != nil {
				stmt, concrete, err := Instantiate(sql, snap)
				switch {
				case t == nil:
					t = &template{entry{sql: sql}, stmt, concrete, err}
					templates[key] = t
					ordered = append(ordered, t)
				case err == nil:
					t.sql, t.stmt, t.concrete, t.err = sql, stmt, concrete, nil
				}
			}
			t.calls += e.calls
		}
	}
	// Heaviest templates first; the stable sort keeps arrival order among
	// equals, so the import is deterministic.
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].calls > ordered[j].calls })

	for _, t := range ordered {
		if opts.MinCalls > 0 && t.calls < opts.MinCalls {
			continue
		}
		if len(rep.Queries) >= opts.maxTemplates() {
			rep.Skipped = append(rep.Skipped, SkippedQuery{SQL: t.sql, Reason: "template cap reached"})
			continue
		}
		if t.err != nil {
			rep.Skipped = append(rep.Skipped, SkippedQuery{SQL: t.sql, Reason: t.err.Error()})
			continue
		}
		rep.Queries = append(rep.Queries, workload.Query{
			ID:     fmt.Sprintf("live#%d", len(rep.Queries)),
			SQL:    t.concrete,
			Weight: float64(t.calls),
			Stmt:   t.stmt,
		})
	}
	return rep
}

// Instantiate parses and resolves one statement and binds its $n parameters
// to representative constants from the snapshot's statistics: equality gets
// the most common value, range bounds get histogram quartiles. It returns
// the resolved statement and its SQL: the text as written when it held no
// parameter, the bound statement's rendering otherwise. A parameter nothing
// compares with a column has no statistics to draw on; the statement is
// refused at the parameter's position, not given a nonsense constant.
func Instantiate(sql string, snap *Snapshot) (*sqlparse.SelectStmt, string, error) {
	stmt, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, "", err
	}
	if err := sqlparse.Resolve(stmt, snap.Schema); err != nil {
		return nil, "", err
	}
	if stmt.FirstParam() == nil {
		return stmt, sql, nil
	}
	stmt.Where = sqlparse.Rewrite(stmt.Where, snap.bindParams)
	stmt.Having = sqlparse.Rewrite(stmt.Having, snap.bindParams)
	switch p := stmt.FirstParam(); {
	case p == nil:
		return stmt, stmt.String(), nil
	case p == stmt.LimitParam:
		return nil, "", p.Errorf("parameter %s in LIMIT has no column to take a value from", p)
	default:
		return nil, "", p.Errorf("parameter %s is not compared with a column in WHERE or HAVING: no column to take a value from", p)
	}
}

// bindParams is the Rewrite step of Instantiate: a node that sets a column
// against parameters — col OP $n (either way round), col BETWEEN $n AND $m,
// col IN ($n, ...) — gets each of them replaced by a constant chosen from
// the column's statistics. e is Rewrite's fresh copy, so it is edited in
// place.
func (snap *Snapshot) bindParams(e sqlparse.Expr) sqlparse.Expr {
	bind := func(slot *sqlparse.Expr, col *sqlparse.ColumnRef, role valueRole) {
		if _, ok := (*slot).(*sqlparse.Param); ok {
			*slot = &sqlparse.Literal{Value: pickValue(snap, col, role)}
		}
	}
	switch v := e.(type) {
	case *sqlparse.BinaryExpr:
		if col, ok := v.L.(*sqlparse.ColumnRef); ok {
			bind(&v.R, col, roleFor(v.Op, false))
		} else if col, ok := v.R.(*sqlparse.ColumnRef); ok {
			bind(&v.L, col, roleFor(v.Op, true))
		}
	case *sqlparse.BetweenExpr:
		if col, ok := v.E.(*sqlparse.ColumnRef); ok {
			bind(&v.Lo, col, roleLo)
			bind(&v.Hi, col, roleHi)
		}
	case *sqlparse.InExpr:
		if col, ok := v.E.(*sqlparse.ColumnRef); ok {
			for i := range v.List {
				bind(&v.List[i], col, roleEq)
			}
		}
	}
	return e
}

type valueRole int

const (
	roleEq valueRole = iota
	roleLo           // lower bound of a range (col > $n)
	roleHi           // upper bound of a range (col < $n)
)

// roleFor reads the parameter's role in col OP $n — or in $n OP col, where
// the comparison bounds the column from the other side.
func roleFor(op sqlparse.BinOp, paramOnLeft bool) valueRole {
	switch op {
	case sqlparse.OpGt, sqlparse.OpGe:
		if paramOnLeft {
			return roleHi
		}
		return roleLo
	case sqlparse.OpLt, sqlparse.OpLe:
		if paramOnLeft {
			return roleLo
		}
		return roleHi
	}
	return roleEq
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
