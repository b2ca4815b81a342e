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
	n := e.bestMVRewrite(sel, catalog.NormCol(t.Name), views)
	if n == nil {
		return -1
	}
	return n.TotalCost
}

// bestMVRewrite returns the cheapest finished MV-rewrite plan for the
// statement over the given structures, or nil when no aggregate view on its
// table among them applies.
func (e *Env) bestMVRewrite(sel *sqlparse.SelectStmt, table string, views []*catalog.Index) *Node {
	var best *Node
	for _, mv := range views {
		if mv.Kind != catalog.KindAggView || catalog.NormCol(mv.Table) != table {
			continue
		}
		n := e.mvRewritePlan(sel, table, mv)
		if n != nil && (best == nil || n.TotalCost < best.TotalCost) {
			best = n
		}
	}
	return best
}

// mvRewritePlan builds the finished plan answering sel from mv, or nil when
// the view does not apply.
func (e *Env) mvRewritePlan(sel *sqlparse.SelectStmt, table string, mv *catalog.Index) *Node {
	if !sqlparse.HasAggregate(sel) || sel.Distinct {
		return nil
	}
	queryKeys, allPlain := sqlparse.GroupKeyColumns(sel)
	if !allPlain {
		return nil
	}
	keySet := make(map[string]bool, len(mv.Columns))
	for _, k := range catalog.NormCols(mv.Columns) {
		keySet[k] = true
	}
	for _, k := range queryKeys {
		if !keySet[k] {
			return nil
		}
	}
	rollup := len(queryKeys) < len(keySet)

	aggSet := make(map[string]bool, len(mv.Aggs))
	for _, a := range catalog.NormCols(mv.Aggs) {
		aggSet[a] = true
	}
	for _, a := range sqlparse.Aggregates(sel) {
		if !aggSet[a] {
			return nil
		}
		if rollup && strings.HasPrefix(a, "avg(") {
			return nil // AVG does not re-aggregate from finer groups
		}
	}

	// WHERE conjuncts must be evaluable over the view's key columns.
	conjuncts := sqlparse.Conjuncts(sel.Where)
	for _, c := range conjuncts {
		ok := true
		sqlparse.WalkColumns(c, func(col *sqlparse.ColumnRef) {
			if !keySet[catalog.NormCol(col.Column)] {
				ok = false
			}
		})
		if !ok {
			return nil
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
			return nil
		}
	}
	for _, o := range sel.OrderBy {
		if !exprOK(o.Expr) {
			return nil
		}
	}
	if !exprOK(sel.Having) {
		return nil
	}

	// --- Build the plan: MVScan -> [filter] -> [rollup HashAgg] -> tail. ---
	ts := e.tableStats(table)
	mvRows, mvPages := e.aggViewGeometry(mv, ts)

	scan := &Node{
		Kind:    NodeMVScan,
		Table:   table,
		Index:   mv,
		EstRows: mvRows,
	}
	scan.TotalCost = e.Params.seqScanCost(mvPages, mvRows, len(conjuncts))
	if len(conjuncts) > 0 {
		scan.Filter = conjuncts
		// Filter selectivity over group keys carries over from base-table
		// stats: an equality keeping 1/NDV of the rows keeps 1/NDV of the
		// groups.
		scan.EstRows = math.Max(mvRows*e.SelectivityAll(conjuncts), 1)
	}

	n := scan
	if rollup || sel.Having != nil {
		var groupBy []*sqlparse.ColumnRef
		for _, g := range sel.GroupBy {
			if col, ok := g.(*sqlparse.ColumnRef); ok {
				groupBy = append(groupBy, col)
			}
		}
		var aggs []AggSpec
		for _, p := range sel.Projections {
			collectAggs(p.Expr, &aggs)
		}
		collectAggs(sel.Having, &aggs)

		groups := 1.0
		for _, g := range groupBy {
			groups *= e.distinctOf(g.Table, g.Column, n.EstRows)
		}
		if groups > n.EstRows {
			groups = n.EstRows
		}
		if groups < 1 {
			groups = 1
		}
		agg := &Node{
			Kind:        NodeHashAgg,
			GroupBy:     groupBy,
			Aggs:        aggs,
			Children:    []*Node{n},
			EstRows:     groups,
			StartupCost: n.TotalCost,
			TotalCost:   n.TotalCost + e.Params.aggCost(n.EstRows, groups, len(aggs)),
		}
		if sel.Having != nil {
			agg.Filter = sqlparse.Conjuncts(sel.Having)
			agg.EstRows = math.Max(groups*defaultSel, 1)
		}
		n = agg
	}
	n = e.addOrdering(n, sel)
	n = e.addLimit(n, sel)
	return e.addProjection(n, sel)
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
