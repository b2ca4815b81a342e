package optimizer

import (
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// MV rewrite: answer a single-table GROUP BY/aggregate query from a
// materialized aggregate view (catalog.KindAggView) instead of the base
// table. The view stores one row per distinct combination of its group
// keys plus the pre-computed aggregates, so the rewrite scans the (much
// smaller) view, applies WHERE filters over the keys, and — when the query
// groups by a strict subset of the view's keys — rolls the finer groups up
// with a HashAggregate.
//
// Applicability (all required):
//   - single-table query over the view's table, with aggregation
//   - every GROUP BY key is a plain column and a subset of the view's keys
//   - every WHERE conjunct touches only view key columns
//   - every aggregate call (projections and HAVING) is stored by the view
//   - projections/ORDER BY reference only group keys and stored aggregates
//   - a rollup (strict key subset) excludes AVG, which cannot be
//     re-aggregated from finer groups
//
// The rewrite competes with conventional plans as a whole-query
// alternative in Optimize; with no aggregate views configured it is never
// attempted, preserving bit-identical plans for index-only workloads.

// BestMVRewriteCost returns the total cost of the cheapest MV-rewrite plan
// for a resolved statement over the given structures (anything but an
// aggregate view on the statement's table is skipped), or -1 when none applies.
// e.Config is not consulted. INUM's CostFor takes the min of this against
// its template costs: an MV rewrite replaces scan and aggregation wholesale,
// so its benefit cannot flow through per-table access-cost plugging.
func (e *Env) BestMVRewriteCost(sel *sqlparse.SelectStmt, views []*catalog.Index) float64 {
	if len(sel.From) != 1 {
		return -1
	}
	t := e.Schema.Table(sel.From[0].Name)
	if t == nil {
		return -1
	}
	q := tailOf(sel)
	mv, total := q.bestMVRewrite(e, catalog.NormCol(t.Name), views)
	if mv == nil {
		return -1
	}
	return total
}

// bestMVRewrite returns the aggregate view on the statement's table, among
// the given structures, whose finished rewrite plan is cheapest, and that
// plan's total cost; nil when none applies. It builds no plan.
func (q *tail) bestMVRewrite(e *Env, table string, views []*catalog.Index) (best *catalog.Index, total float64) {
	for _, mv := range views {
		if mv.Kind != catalog.KindAggView || catalog.NormCol(mv.Table) != table {
			continue
		}
		t, agg, ok := e.mvScan(q.sel, table, mv, false)
		if !ok {
			continue
		}
		q.finish(e, &t, agg)
		if best == nil || t.total < total {
			best, total = mv, t.total
		}
	}
	return best, total
}

// mvScan starts the plan answering sel from mv: the view's scan, with its
// node when build is set, and whether an aggregation must follow it — a
// rollup to a strict subset of the view's keys, or HAVING. It reports false
// when the view does not apply.
func (e *Env) mvScan(sel *sqlparse.SelectStmt, table string, mv *catalog.Index, build bool) (t top, agg, ok bool) {
	a := sel.Analysis()
	if !a.Aggregate || sel.Distinct || !a.PlainGroups {
		return
	}
	queryKeys := a.GroupKeys
	keySet := make(map[string]bool, len(mv.Columns))
	for _, k := range catalog.NormCols(mv.Columns) {
		keySet[k] = true
	}
	for _, k := range queryKeys {
		if !keySet[k] {
			return
		}
	}
	rollup := len(queryKeys) < len(keySet)

	aggSet := make(map[string]bool, len(mv.Aggs))
	for _, stored := range catalog.NormCols(mv.Aggs) {
		aggSet[stored] = true
	}
	for _, call := range a.Aggregates {
		if !aggSet[call] {
			return
		}
		if rollup && strings.HasPrefix(call, "avg(") {
			return // AVG does not re-aggregate from finer groups
		}
	}

	// WHERE conjuncts must be evaluable over the view's key columns.
	conjuncts := a.Conjuncts
	for _, c := range conjuncts {
		keysOnly := true
		sqlparse.WalkColumns(c, func(col *sqlparse.ColumnRef) {
			if !keySet[catalog.NormCol(col.Column)] {
				keysOnly = false
			}
		})
		if !keysOnly {
			return
		}
	}

	// Projections and ORDER BY must be built from group keys, stored
	// aggregates, and literals.
	groupSet := make(map[string]bool, len(queryKeys))
	for _, k := range queryKeys {
		groupSet[k] = true
	}
	var exprOK func(ex sqlparse.Expr) bool
	exprOK = func(ex sqlparse.Expr) bool {
		switch v := ex.(type) {
		case nil, *sqlparse.Literal:
			return true
		case *sqlparse.ColumnRef:
			return groupSet[catalog.NormCol(v.Column)]
		case *sqlparse.FuncExpr:
			return aggSet[sqlparse.AggString(v)]
		case *sqlparse.BinaryExpr:
			return exprOK(v.L) && exprOK(v.R)
		case *sqlparse.NotExpr:
			return exprOK(v.E)
		default:
			return false
		}
	}
	for _, p := range sel.Projections {
		if !exprOK(p.Expr) {
			return
		}
	}
	for _, o := range sel.OrderBy {
		if !exprOK(o.Expr) {
			return
		}
	}
	if !exprOK(sel.Having) {
		return
	}

	// --- The scan: MVScan -> [filter]; finish adds [rollup HashAgg] -> tail. ---
	ts := e.tableStats(table)
	mvRows, mvPages := e.aggViewGeometry(mv, ts)
	t = top{rows: mvRows, total: e.Params.seqScanCost(mvPages, mvRows, len(conjuncts))}
	if len(conjuncts) > 0 {
		// Filter selectivity over group keys carries over from base-table
		// stats: an equality keeping 1/NDV of the rows keeps 1/NDV of the
		// groups.
		t.rows = math.Max(mvRows*e.SelectivityAll(conjuncts), 1)
	}
	if build {
		t.node = &Node{Kind: NodeMVScan, Table: table, Index: mv, EstRows: t.rows, TotalCost: t.total}
		if len(conjuncts) > 0 {
			t.node.Filter = conjuncts
		}
	}
	return t, rollup || sel.Having != nil, true
}

// aggViewGeometry returns the view's row count and heap pages, estimating
// both from base-table statistics when the what-if layer has not sized it.
func (e *Env) aggViewGeometry(mv *catalog.Index, ts *stats.TableStats) (rows, pages float64) {
	estRows, estPages := EstimateAggViewSize(e.Schema.Table(mv.Table), ts, mv.Columns, mv.Aggs)
	rows = float64(mv.EstimatedRows)
	if rows <= 0 {
		rows = float64(estRows)
	}
	if rows < 1 {
		rows = 1
	}
	pages = float64(mv.EstimatedPages)
	if pages <= 0 {
		pages = float64(estPages)
	}
	return rows, pages
}
