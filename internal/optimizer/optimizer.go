package optimizer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// Optimize plans a resolved SELECT statement against the environment's
// physical configuration and returns the cheapest plan found. It runs the
// plan search, which compares plans by value, and builds only the winner's
// nodes: no plan that loses is ever built. A caller that reads only the
// winner's total (Cost, CostUnder) or its leaf scans (ShapeUnder) builds
// none.
//
// The statement must already be resolved (sqlparse.Resolve) so that every
// column reference carries its real table name.
func (e *Env) Optimize(sel *sqlparse.SelectStmt) (*Plan, error) {
	return searched(e, sel, e.Config, func(s *search) *Plan { return &Plan{Root: s.build(), Tables: s.tables} })
}

// Cost is the total cost of the plan Optimize returns, bit for bit. It runs
// the same search and reads the winner's total without building a node; it
// is the designer's most frequently called entry point.
func (e *Env) Cost(sel *sqlparse.SelectStmt) (float64, error) {
	return e.CostUnder(sel, e.Config)
}

// CostUnder is e.WithConfig(cfg).Cost(sel), bit for bit, without the copy
// of the environment: the what-if entry point of a caller that prices one
// statement under many configurations. A nil cfg is the empty design.
func (e *Env) CostUnder(sel *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	return searched(e, sel, cfg, func(s *search) float64 { return s.total })
}

// PlanShape is what INUM reads of the plan Optimize returns: its total, the
// sum of its leaf scans' totals, and per FROM position the leading key of
// the order the table's leaf scan delivers — the zero key for none, for the
// parameterized inner of a nested loop (its probe is join cost, not a leaf)
// and for a table an aggregate view answers.
type PlanShape struct {
	Total  float64
	Scans  float64
	Orders []OrderKey
}

// ShapeUnder is the shape of e.WithConfig(cfg).Optimize(sel), bit for bit —
// the scans summed in Node.Walk's order, outer input before inner — read
// off the search's winner without building a node. A nil cfg is the empty
// design.
func (e *Env) ShapeUnder(sel *sqlparse.SelectStmt, cfg *catalog.Configuration) (PlanShape, error) {
	return searched(e, sel, cfg, (*search).shape)
}

// searched runs the plan search of sel under cfg (nil: the empty design) in
// a pooled workspace and reads its winner.
func searched[T any](e *Env, sel *sqlparse.SelectStmt, cfg *catalog.Configuration, read func(*search) T) (T, error) {
	if cfg == nil {
		cfg = catalog.NewConfiguration()
	}
	s := newSearch()
	defer s.release()
	if err := s.run(e, cfg, sel); err != nil {
		var none T
		return none, err
	}
	return read(s), nil
}

// shape reads the winner's shape.
func (s *search) shape() PlanShape {
	sh := PlanShape{Total: s.total, Orders: make([]OrderKey, len(s.tables))}
	if p := s.best; p != nil {
		s.addScans(p, &sh)
		if p.outer == nil {
			// A lone scan is the node the residual predicates filter at
			// (finished): it carries their cost.
			sh.Scans = s.filtered(p).total
		}
	}
	return sh
}

// addScans adds the leaf scans under path p to the shape, the outer input's
// before the inner's.
func (s *search) addScans(p *path, sh *PlanShape) {
	switch p.kind {
	case NodeSeqScan, NodeIndexScan, NodeIndexOnlyScan:
		sh.Scans += p.total
		if p.ord.ix != nil {
			sh.Orders[p.table] = OrderKey{Table: p.ord.table, Column: p.ord.ix.Columns[0], Desc: p.ord.desc}
		}
		return
	}
	s.addScans(p.outer, sh)
	if p.inner != nil {
		s.addScans(p.inner, sh)
	}
}

// run searches the plans of a resolved statement under cfg and leaves the
// winner in s.best (or s.mv) and its total in s.total.
func (s *search) run(e *Env, cfg *catalog.Configuration, sel *sqlparse.SelectStmt) error {
	if len(sel.From) == 0 {
		return errors.New("optimizer: SELECT without FROM is not supported")
	}
	a := sel.Analysis()
	s.env, s.tables = e, a.Tables
	for i, t := range s.tables {
		if e.Schema.Table(t) == nil {
			return fmt.Errorf("optimizer: unknown table %q", sel.From[i].Name)
		}
		if slices.Contains(s.tables[:i], t) {
			return fmt.Errorf("optimizer: self-joins need distinct table copies; %q appears twice", sel.From[i].Name)
		}
	}
	if len(s.tables) > 12 {
		return fmt.Errorf("optimizer: joins over %d tables exceed the DP limit of 12", len(s.tables))
	}

	// Each table's structures, in configuration order, are one run of the
	// index buffer. No two tables share a structure, so the runs fit in the
	// configuration's length and none moves once cut.
	s.indexes = slices.Grow(s.indexes, len(cfg.Indexes))
	for i, t := range s.tables {
		start := len(s.indexes)
		for _, ix := range cfg.Indexes {
			if catalog.NormCol(ix.Table) == t {
				s.indexes = append(s.indexes, ix)
			}
		}
		d := TableDesign{Indexes: s.indexes[start:len(s.indexes):len(s.indexes)], Vertical: cfg.VerticalOn(t), Horizontal: cfg.HorizontalOn(t)}
		s.scans = append(s.scans, e.newTableScan(t, d, a.Filters[i], a.Columns[i], a.Star))
	}
	s.joins, s.residual = a.Joins, a.Residual
	for _, j := range s.joins {
		s.joinPos = append(s.joinPos, [2]int{
			slices.Index(s.tables, strings.ToLower(j.LeftTable)),
			slices.Index(s.tables, strings.ToLower(j.RightTable)),
		})
	}
	if len(s.residual) > 0 {
		s.resSel = e.SelectivityAll(s.residual)
	}
	s.tail = tailOf(sel)
	s.wantOrders()
	paths := s.bestJoin()
	if len(paths) == 0 {
		return errors.New("optimizer: no plan found")
	}

	for i := range paths {
		if t := s.finished(&paths[i], false); s.best == nil || t.total < s.total {
			s.best, s.total = &paths[i], t.total
		}
	}
	// A materialized aggregate view competes as a whole-query alternative:
	// the rewrite replaces scan+aggregation wholesale, so it cannot be
	// composed from per-table access paths.
	if len(s.tables) == 1 {
		if mv, total := s.bestMVRewrite(e, s.tables[0], cfg.Indexes); mv != nil && total < s.total {
			s.best, s.mv, s.total = nil, mv, total
		}
	}
	return nil
}

// build turns the search's winner into its plan tree.
func (s *search) build() *Node {
	if s.mv != nil {
		t, agg, _ := s.env.mvScan(s.sel, s.tables[0], s.mv, true)
		s.finish(s.env, &t, agg)
		return t.node
	}
	return s.finished(s.best, true).node
}

// finished puts every step above the join search over path p: the residual
// predicates filter the join result, then the tail. With build it also
// builds the plan.
func (s *search) finished(p *path, build bool) top {
	t := s.filtered(p)
	if build {
		t.node = s.node(p)
		if n := t.node; len(s.residual) > 0 {
			n.Filter = append(append([]sqlparse.Expr(nil), n.Filter...), s.residual...)
			n.EstRows, n.TotalCost = t.rows, t.total
		}
	}
	s.finish(s.env, &t, s.agg)
	return t
}

// filtered is the top of path p under the residual predicates, which its
// top node evaluates.
func (s *search) filtered(p *path) top {
	t := top{rows: p.rows, startup: p.startup, total: p.total, ord: p.ord}
	if len(s.residual) > 0 {
		rows := math.Max(t.rows*s.resSel, 1)
		t.total += t.rows * s.env.Params.CPUOperatorCost * float64(len(s.residual))
		t.rows = rows
	}
	return t
}

// wantOrders lists the sort orders worth preserving through the plan: the
// ORDER BY order (when fully column-based) and each merge-joinable key. The
// join keys are runs of one buffer, cut once it is full.
func (s *search) wantOrders() {
	if s.orderBy != nil {
		s.wantedOrders = append(s.wantedOrders, s.orderBy)
	}
	for _, j := range s.joins {
		s.joinKeys = append(s.joinKeys, joinKey(j.LeftTable, j.LeftColumn), joinKey(j.RightTable, j.RightColumn))
	}
	for k := range s.joinKeys {
		s.wantedOrders = append(s.wantedOrders, s.joinKeys[k:k+1:k+1])
	}
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

// tail is what the steps every plan ends with read of a statement: its
// aggregation, its ORDER BY as keys, LIMIT and the projections.
type tail struct {
	sel      *sqlparse.SelectStmt
	agg      bool // GROUP BY, aggregates or DISTINCT: a HashAggregate
	groupBy  []*sqlparse.ColumnRef
	aggs     []AggSpec
	orderBy  []OrderKey // nil when some ORDER BY item is an expression
	sortKeys []OrderKey // what an ORDER BY sort sorts by
}

// tailOf reads a resolved statement's tail.
func tailOf(sel *sqlparse.SelectStmt) tail {
	q := tail{sel: sel, orderBy: orderByKeys(sel)}
	if q.sortKeys = q.orderBy; q.sortKeys == nil && len(sel.OrderBy) > 0 {
		// Expression sort keys: evaluated by the executor, an unnamed order.
		q.sortKeys = make([]OrderKey, len(sel.OrderBy))
		for i := range q.sortKeys {
			q.sortKeys[i].Column = "<expr>"
		}
	}
	hasAgg := sel.Analysis().Aggregate
	if q.agg = hasAgg || sel.Distinct; !q.agg {
		return q
	}
	if hasAgg {
		for _, g := range sel.GroupBy {
			if col, ok := g.(*sqlparse.ColumnRef); ok {
				q.groupBy = append(q.groupBy, col)
			}
		}
	} else {
		// DISTINCT: group by every projected column reference.
		for _, p := range sel.Projections {
			if col, ok := p.Expr.(*sqlparse.ColumnRef); ok {
				q.groupBy = append(q.groupBy, col)
			}
		}
	}
	for _, p := range sel.Projections {
		collectAggs(p.Expr, &q.aggs)
	}
	collectAggs(sel.Having, &q.aggs)
	return q
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

// top is the top of a plan being finished: the estimates the step above it
// reads, the order it delivers and — when the plan is being built rather
// than priced — its node.
type top struct {
	rows, startup, total float64
	ord                  order
	node                 *Node
}

// wrap puts an operator over the top. It becomes a node, over the top's,
// only when the plan is being built; with keepOrder the node delivers the
// order of the one below it. wrap returns the node (nil while pricing).
func (t *top) wrap(op Node, keepOrder bool) *Node {
	t.rows, t.startup, t.total = op.EstRows, op.StartupCost, op.TotalCost
	if t.node == nil {
		return nil
	}
	n := op
	n.Children = []*Node{t.node}
	if keepOrder {
		n.Order = t.node.Order
	}
	t.node = &n
	return t.node
}

// sort puts an explicit sort on keys over the top (the keys matter only to
// the node).
func (t *top) sort(p CostParams, keys []OrderKey) {
	startup, total := p.sortCost(t.rows)
	t.wrap(Node{Kind: NodeSort, SortKeys: keys, Order: keys, EstRows: t.rows, StartupCost: t.total + startup, TotalCost: t.total + total}, false)
}

// sortNode puts an explicit sort on keys over n.
func (p CostParams) sortNode(n *Node, keys []OrderKey) *Node {
	t := top{rows: n.EstRows, total: n.TotalCost, node: n}
	t.sort(p, keys)
	return t.node
}

// finish puts the statement's steps over t, in order: a HashAggregate for
// GROUP BY / aggregates / DISTINCT (when agg is set), a Sort when the
// delivered order does not already satisfy ORDER BY, a Limit that discounts
// total cost by the fraction of rows produced, and the output projection.
func (q *tail) finish(e *Env, t *top, agg bool) {
	sel := q.sel
	if agg {
		groups := 1.0
		for _, g := range q.groupBy {
			groups *= e.distinctOf(g.Table, g.Column, t.rows)
		}
		if groups > t.rows {
			groups = t.rows
		}
		if groups < 1 {
			groups = 1
		}
		rows := groups
		if sel.Having != nil {
			rows = math.Max(groups*defaultSel, 1)
		}
		n := t.wrap(Node{
			Kind:        NodeHashAgg,
			GroupBy:     q.groupBy,
			Aggs:        q.aggs,
			EstRows:     rows,
			StartupCost: t.total,
			TotalCost:   t.total + e.Params.aggCost(t.rows, groups, len(q.aggs)),
		}, false)
		if n != nil && sel.Having != nil {
			n.Filter = sqlparse.Conjuncts(sel.Having)
		}
		t.ord = order{}
	}

	if q.sortKeys != nil && (q.orderBy == nil || !t.ord.satisfies(q.orderBy)) {
		t.sort(e.Params, q.sortKeys)
	}

	if sel.Limit >= 0 {
		frac := 1.0
		if t.rows > 0 {
			frac = math.Min(float64(sel.Limit)/t.rows, 1)
		}
		rows := math.Min(float64(sel.Limit), t.rows)
		t.wrap(Node{
			Kind:        NodeLimit,
			Limit:       sel.Limit,
			EstRows:     rows,
			StartupCost: t.startup,
			TotalCost:   t.startup + (t.total-t.startup)*frac,
		}, true)
	}

	t.wrap(Node{
		Kind:        NodeProject,
		Projections: sel.Projections,
		EstRows:     t.rows,
		StartupCost: t.startup,
		TotalCost:   t.total + t.rows*e.Params.CPUTupleCost*0.25,
	}, true)
}
