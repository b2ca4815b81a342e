package optimizer

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/sqlparse"
)

// Optimize plans a resolved SELECT statement against the environment's
// physical configuration and returns the cheapest plan found.
//
// The statement must already be resolved (sqlparse.Resolve) so that every
// column reference carries its real table name.
func (e *Env) Optimize(sel *sqlparse.SelectStmt) (*Plan, error) {
	if len(sel.From) == 0 {
		return nil, errors.New("optimizer: SELECT without FROM is not supported")
	}
	tables := make([]string, 0, len(sel.From))
	tableBit := make(map[string]int, len(sel.From))
	for i, ref := range sel.From {
		t := e.Schema.Table(ref.Name)
		if t == nil {
			return nil, fmt.Errorf("optimizer: unknown table %q", ref.Name)
		}
		lt := strings.ToLower(t.Name)
		if _, dup := tableBit[lt]; dup {
			return nil, fmt.Errorf("optimizer: self-joins need distinct table copies; %q appears twice", t.Name)
		}
		tableBit[lt] = i
		tables = append(tables, lt)
	}
	if len(tables) > 12 {
		return nil, fmt.Errorf("optimizer: joins over %d tables exceed the DP limit of 12", len(tables))
	}

	filters, joins, residual := sqlparse.SplitPredicates(sel)
	needed, star := neededColumns(sel)

	st := &joinState{
		env:          e,
		tables:       tables,
		tableBit:     tableBit,
		filters:      filters,
		joins:        joins,
		needed:       needed,
		star:         star,
		wantedOrders: e.wantedOrders(sel, joins),
		memo:         make(map[int][]*Node),
	}
	paths := st.bestJoin()
	if len(paths) == 0 {
		return nil, errors.New("optimizer: no plan found")
	}

	// Residual cross-table predicates filter the join result.
	applyResidual := func(n *Node) *Node {
		if len(residual) == 0 {
			return n
		}
		selres := e.SelectivityAll(residual)
		out := n.Clone()
		out.Filter = append(append([]sqlparse.Expr(nil), out.Filter...), residual...)
		out.EstRows = math.Max(n.EstRows*selres, 1)
		out.TotalCost += n.EstRows * e.Params.CPUOperatorCost * float64(len(residual))
		return out
	}

	finish := func(base *Node) *Node {
		n := applyResidual(base)
		n = e.addAggregation(n, sel)
		n = e.addOrdering(n, sel)
		n = e.addLimit(n, sel)
		return e.addProjection(n, sel)
	}

	var best *Node
	for _, p := range paths {
		c := finish(p)
		if best == nil || c.TotalCost < best.TotalCost {
			best = c
		}
	}
	// A materialized aggregate view competes as a whole-query alternative:
	// the rewrite replaces scan+aggregation wholesale, so it cannot be
	// composed from per-table access paths.
	if len(tables) == 1 {
		if mv := e.bestMVRewrite(sel, tables[0], e.Config.Indexes); mv != nil && mv.TotalCost < best.TotalCost {
			best = mv
		}
	}
	return &Plan{Root: best, Tables: tables}, nil
}

// wantedOrders lists sort orders worth preserving through the plan: the
// ORDER BY order (when fully column-based) and each merge-joinable key.
func (e *Env) wantedOrders(sel *sqlparse.SelectStmt, joins []sqlparse.JoinEdge) [][]OrderKey {
	var out [][]OrderKey
	if ord := orderByKeys(sel); ord != nil {
		out = append(out, ord)
	}
	for _, j := range joins {
		out = append(out,
			[]OrderKey{{Table: strings.ToLower(j.LeftTable), Column: strings.ToLower(j.LeftColumn)}},
			[]OrderKey{{Table: strings.ToLower(j.RightTable), Column: strings.ToLower(j.RightColumn)}},
		)
	}
	return out
}

// orderByKeys converts ORDER BY into OrderKeys when every item is a plain
// column reference; otherwise nil (an explicit Sort will evaluate them).
func orderByKeys(sel *sqlparse.SelectStmt) []OrderKey {
	if len(sel.OrderBy) == 0 {
		return nil
	}
	out := make([]OrderKey, 0, len(sel.OrderBy))
	for _, item := range sel.OrderBy {
		col, ok := item.Expr.(*sqlparse.ColumnRef)
		if !ok {
			return nil
		}
		out = append(out, OrderKey{
			Table:  strings.ToLower(col.Table),
			Column: strings.ToLower(col.Column),
			Desc:   item.Desc,
		})
	}
	return out
}

// addAggregation inserts a HashAggregate for GROUP BY / aggregates /
// DISTINCT queries.
func (e *Env) addAggregation(n *Node, sel *sqlparse.SelectStmt) *Node {
	hasAgg := sqlparse.HasAggregate(sel)
	if !hasAgg && !sel.Distinct {
		return n
	}

	var groupBy []*sqlparse.ColumnRef
	if hasAgg {
		for _, g := range sel.GroupBy {
			if col, ok := g.(*sqlparse.ColumnRef); ok {
				groupBy = append(groupBy, col)
			}
		}
	} else {
		// DISTINCT: group by every projected column reference.
		for _, p := range sel.Projections {
			if col, ok := p.Expr.(*sqlparse.ColumnRef); ok {
				groupBy = append(groupBy, col)
			}
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
	return agg
}

// collectAggs gathers the aggregate calls anywhere in an expression (their
// arguments hold none).
func collectAggs(expr sqlparse.Expr, out *[]AggSpec) {
	sqlparse.Walk(expr, func(e sqlparse.Expr) bool {
		f, isAgg := e.(*sqlparse.FuncExpr)
		if isAgg {
			spec := AggSpec{Func: f.Func, Star: f.Star}
			spec.Arg, _ = f.Arg.(*sqlparse.ColumnRef)
			*out = append(*out, spec)
		}
		return !isAgg
	})
}

// addOrdering appends a Sort when the plan's delivered order does not
// already satisfy ORDER BY.
func (e *Env) addOrdering(n *Node, sel *sqlparse.SelectStmt) *Node {
	if len(sel.OrderBy) == 0 {
		return n
	}
	want := orderByKeys(sel)
	if want != nil && orderSatisfies(n.Order, want) {
		return n
	}
	keys := want
	if keys == nil {
		// Expression sort keys: evaluated by the executor; approximate with
		// an unnamed order.
		keys = []OrderKey{}
		for range sel.OrderBy {
			keys = append(keys, OrderKey{Column: "<expr>"})
		}
	}
	startup, total := e.Params.sortCost(n.EstRows)
	return &Node{
		Kind:        NodeSort,
		SortKeys:    keys,
		Children:    []*Node{n},
		EstRows:     n.EstRows,
		StartupCost: n.TotalCost + startup,
		TotalCost:   n.TotalCost + total,
		Order:       keys,
	}
}

// addLimit wraps the plan in a Limit node and discounts total cost by the
// fraction of rows actually produced.
func (e *Env) addLimit(n *Node, sel *sqlparse.SelectStmt) *Node {
	if sel.Limit < 0 {
		return n
	}
	frac := 1.0
	if n.EstRows > 0 {
		frac = math.Min(float64(sel.Limit)/n.EstRows, 1)
	}
	rows := math.Min(float64(sel.Limit), n.EstRows)
	return &Node{
		Kind:        NodeLimit,
		Limit:       sel.Limit,
		Children:    []*Node{n},
		EstRows:     rows,
		StartupCost: n.StartupCost,
		TotalCost:   n.StartupCost + (n.TotalCost-n.StartupCost)*frac,
		Order:       n.Order,
	}
}

// addProjection wraps the plan in the output projection.
func (e *Env) addProjection(n *Node, sel *sqlparse.SelectStmt) *Node {
	return &Node{
		Kind:        NodeProject,
		Projections: sel.Projections,
		Children:    []*Node{n},
		EstRows:     n.EstRows,
		StartupCost: n.StartupCost,
		TotalCost:   n.TotalCost + n.EstRows*e.Params.CPUTupleCost*0.25,
		Order:       n.Order,
	}
}

// Cost is a convenience that plans the statement and returns the total
// cost; it is the designer's most frequently called entry point.
func (e *Env) Cost(sel *sqlparse.SelectStmt) (float64, error) {
	p, err := e.Optimize(sel)
	if err != nil {
		return 0, err
	}
	return p.TotalCost(), nil
}
