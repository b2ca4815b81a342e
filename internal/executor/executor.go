package executor

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Rows    []catalog.Row
	// IO is the logical page I/O charged while executing.
	IO storage.IOCounter
}

// Executor runs plans against a store.
type Executor struct {
	store *storage.Store
}

// New returns an executor over the store.
func New(store *storage.Store) *Executor { return &Executor{store: store} }

// Run executes a plan and returns its materialized result. Plans that
// reference hypothetical indexes fail: what-if designs can be costed but
// not executed, exactly as in the paper's what-if component.
func (ex *Executor) Run(plan *optimizer.Plan) (*Result, error) {
	var io storage.IOCounter
	rs, rows, err := ex.exec(plan.Root, &io)
	if err != nil {
		return nil, err
	}
	res := &Result{Rows: rows, IO: io}
	for _, c := range rs.cols {
		res.Columns = append(res.Columns, c.String())
	}
	return res, nil
}

// exec dispatches one plan node.
func (ex *Executor) exec(n *optimizer.Node, io *storage.IOCounter) (*rowSchema, []catalog.Row, error) {
	switch n.Kind {
	case optimizer.NodeSeqScan:
		return ex.execSeqScan(n, io)
	case optimizer.NodeIndexScan, optimizer.NodeIndexOnlyScan:
		if n.ParamOuterColumn != "" {
			return nil, nil, fmt.Errorf("executor: parameterized scan of %s executed without a driving join", n.Table)
		}
		return ex.execIndexScan(n, nil, io)
	case optimizer.NodeNestLoop:
		return ex.execNestLoop(n, io)
	case optimizer.NodeHashJoin:
		return ex.execHashJoin(n, io)
	case optimizer.NodeMergeJoin:
		return ex.execMergeJoin(n, io)
	case optimizer.NodeSort:
		return ex.execSort(n, io)
	case optimizer.NodeHashAgg:
		return ex.execHashAgg(n, io)
	case optimizer.NodeLimit:
		rs, rows, err := ex.exec(n.Children[0], io)
		if err != nil {
			return nil, nil, err
		}
		if int64(len(rows)) > n.Limit {
			rows = rows[:n.Limit]
		}
		return rs, rows, nil
	case optimizer.NodeProject:
		return ex.execProject(n, io)
	default:
		return nil, nil, fmt.Errorf("executor: unhandled node kind %s", n.Kind)
	}
}

// tableSchema builds the row schema of a base table.
func tableSchema(t *catalog.Table) *rowSchema {
	cols := make([]ColID, len(t.Columns))
	lt := strings.ToLower(t.Name)
	for i, c := range t.Columns {
		cols[i] = ColID{Table: lt, Column: strings.ToLower(c.Name)}
	}
	return newRowSchema(cols)
}

func (ex *Executor) execSeqScan(n *optimizer.Node, io *storage.IOCounter) (*rowSchema, []catalog.Row, error) {
	h := ex.store.Heap(n.Table)
	if h == nil {
		return nil, nil, fmt.Errorf("executor: unknown table %q", n.Table)
	}
	rs := tableSchema(h.Table)
	var out []catalog.Row
	var evalErr error
	// Filter the scan's reused buffer; copy out only the rows emitted.
	h.Scan(io, func(_ int64, r catalog.Row) bool {
		ok, err := passesAll(n.Filter, rs, r)
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			out = append(out, r.Clone())
		}
		return true
	})
	if evalErr != nil {
		return nil, nil, evalErr
	}
	return rs, out, nil
}

// execIndexScan runs an index scan; param carries the outer join value for
// parameterized probes (nil for standalone scans). Multi-probe (IN-list)
// scans run one probe per value; InVals are ascending, so concatenated
// output stays in index order.
func (ex *Executor) execIndexScan(n *optimizer.Node, param *catalog.Datum, io *storage.IOCounter) (*rowSchema, []catalog.Row, error) {
	if len(n.InVals) > 0 {
		var rs *rowSchema
		var all []catalog.Row
		for i := range n.InVals {
			// Backward scans probe in descending value order so the
			// concatenated output keeps the delivered (descending) order.
			vi := i
			if n.Backward {
				vi = len(n.InVals) - 1 - i
			}
			probe := *n
			probe.InVals = nil
			probe.EqVals = append(append([]catalog.Datum{}, n.EqVals...), n.InVals[vi])
			prs, rows, err := ex.execIndexScan(&probe, param, io)
			if err != nil {
				return nil, nil, err
			}
			rs = prs
			all = append(all, rows...)
		}
		return rs, all, nil
	}
	if n.Index.Hypothetical {
		return nil, nil, fmt.Errorf("executor: index %s is hypothetical and cannot be executed", n.Index.Name)
	}
	bt := ex.store.Index(n.Index.Key())
	if bt == nil {
		return nil, nil, fmt.Errorf("executor: index %s is not materialized", n.Index.Name)
	}
	h := ex.store.Heap(n.Table)
	fullRS := tableSchema(h.Table)

	// Build scan bounds: equality prefix (+ param), then range.
	prefix := append(storage.Key{}, n.EqVals...)
	if param != nil {
		prefix = append(prefix, *param)
	}
	lo := append(storage.Key{}, prefix...)
	hi := append(storage.Key{}, prefix...)
	var loKey, hiKey storage.Key = lo, hi
	if n.HasRange {
		if !n.LoVal.IsNull() {
			loKey = append(loKey, n.LoVal)
		}
		if !n.HiVal.IsNull() {
			hiKey = append(hiKey, n.HiVal)
		}
	}
	if len(loKey) == 0 {
		loKey = nil
	}
	if len(hiKey) == 0 {
		hiKey = nil
	}

	indexOnly := n.Kind == optimizer.NodeIndexOnlyScan
	var outRS *rowSchema
	if indexOnly {
		cols := make([]ColID, len(n.Index.Columns))
		lt := strings.ToLower(n.Table)
		for i, c := range n.Index.Columns {
			cols[i] = ColID{Table: lt, Column: strings.ToLower(c)}
		}
		outRS = newRowSchema(cols)
	} else {
		outRS = fullRS
	}

	var out []catalog.Row
	var evalErr error
	scan := bt.Scan
	if n.Backward {
		scan = bt.ScanReverse
	}
	scan(loKey, hiKey, io, func(k storage.Key, id int64) bool {
		// Exclusive range bounds are re-checked here; the B-tree scan is
		// inclusive on prefix comparisons.
		if n.HasRange {
			rangePos := len(prefix)
			if len(k) > rangePos {
				v := k[rangePos]
				if !n.LoVal.IsNull() {
					c := v.Compare(n.LoVal)
					if c < 0 || (c == 0 && !n.LoIncl) {
						return true
					}
				}
				if !n.HiVal.IsNull() {
					c := v.Compare(n.HiVal)
					if c > 0 || (c == 0 && !n.HiIncl) {
						return true
					}
				}
			}
		}
		var row catalog.Row
		if indexOnly {
			row = catalog.Row(k).Clone()
		} else {
			row = h.Get(id, io)
		}
		ok, err := passesAll(n.Filter, outRS, row)
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			out = append(out, row)
		}
		return true
	})
	if evalErr != nil {
		return nil, nil, evalErr
	}
	return outRS, out, nil
}

func (ex *Executor) execNestLoop(n *optimizer.Node, io *storage.IOCounter) (*rowSchema, []catalog.Row, error) {
	outerRS, outerRows, err := ex.exec(n.Children[0], io)
	if err != nil {
		return nil, nil, err
	}
	inner := n.Children[1]

	// Parameterized inner index scan: probe per outer row.
	if (inner.Kind == optimizer.NodeIndexScan || inner.Kind == optimizer.NodeIndexOnlyScan) &&
		inner.ParamOuterColumn != "" {
		pcol, err := outerRS.lookup(inner.ParamOuterTable, inner.ParamOuterColumn)
		if err != nil {
			return nil, nil, err
		}
		var innerRS *rowSchema
		var out []catalog.Row
		for _, orow := range outerRows {
			v := orow[pcol]
			if v.IsNull() {
				continue
			}
			rs, irows, err := ex.execIndexScan(inner, &v, io)
			if err != nil {
				return nil, nil, err
			}
			innerRS = rs
			for _, irow := range irows {
				combined := append(append(catalog.Row{}, orow...), irow...)
				out = append(out, combined)
			}
		}
		if innerRS == nil {
			rs, _, err := ex.execIndexScan(inner, &catalog.Datum{}, io)
			if err != nil {
				return nil, nil, err
			}
			innerRS = rs
		}
		joined := outerRS.concat(innerRS)
		return ex.applyJoinResidual(n, joined, out)
	}

	// Plain nested loop: materialize inner once (PostgreSQL's Materialize).
	innerRS, innerRows, err := ex.exec(inner, io)
	if err != nil {
		return nil, nil, err
	}
	joined := outerRS.concat(innerRS)
	var out []catalog.Row
	for _, orow := range outerRows {
		for _, irow := range innerRows {
			combined := append(append(catalog.Row{}, orow...), irow...)
			ok, err := ex.edgesMatch(n.JoinEdges, joined, combined)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				out = append(out, combined)
			}
		}
	}
	return ex.applyJoinResidual(n, joined, out)
}

// edgesMatch checks every equi-join edge on a combined row.
func (ex *Executor) edgesMatch(edges []sqlparse.JoinEdge, rs *rowSchema, row catalog.Row) (bool, error) {
	for _, e := range edges {
		lp, err := rs.lookup(strings.ToLower(e.LeftTable), strings.ToLower(e.LeftColumn))
		if err != nil {
			return false, err
		}
		rp, err := rs.lookup(strings.ToLower(e.RightTable), strings.ToLower(e.RightColumn))
		if err != nil {
			return false, err
		}
		l, r := row[lp], row[rp]
		if l.IsNull() || r.IsNull() || !l.Equal(r) {
			return false, nil
		}
	}
	return true, nil
}

// applyJoinResidual filters join output by the node's residual predicates.
func (ex *Executor) applyJoinResidual(n *optimizer.Node, rs *rowSchema, rows []catalog.Row) (*rowSchema, []catalog.Row, error) {
	if len(n.Filter) == 0 {
		return rs, rows, nil
	}
	out := rows[:0]
	for _, r := range rows {
		ok, err := passesAll(n.Filter, rs, r)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return rs, out, nil
}

func (ex *Executor) execHashJoin(n *optimizer.Node, io *storage.IOCounter) (*rowSchema, []catalog.Row, error) {
	outerRS, outerRows, err := ex.exec(n.Children[0], io)
	if err != nil {
		return nil, nil, err
	}
	innerRS, innerRows, err := ex.exec(n.Children[1], io)
	if err != nil {
		return nil, nil, err
	}
	joined := outerRS.concat(innerRS)

	// Hash inner rows by the join key tuple.
	type keyT string
	innerKeyPos := make([]int, len(n.JoinEdges))
	outerKeyPos := make([]int, len(n.JoinEdges))
	for i, e := range n.JoinEdges {
		// Edges were oriented outer(left) -> inner(right) by the planner,
		// but resolve defensively in both directions.
		if p, err := innerRS.lookup(strings.ToLower(e.RightTable), strings.ToLower(e.RightColumn)); err == nil {
			innerKeyPos[i] = p
			op, err := outerRS.lookup(strings.ToLower(e.LeftTable), strings.ToLower(e.LeftColumn))
			if err != nil {
				return nil, nil, err
			}
			outerKeyPos[i] = op
		} else {
			p, err := innerRS.lookup(strings.ToLower(e.LeftTable), strings.ToLower(e.LeftColumn))
			if err != nil {
				return nil, nil, err
			}
			innerKeyPos[i] = p
			op, err := outerRS.lookup(strings.ToLower(e.RightTable), strings.ToLower(e.RightColumn))
			if err != nil {
				return nil, nil, err
			}
			outerKeyPos[i] = op
		}
	}
	hashKey := func(row catalog.Row, pos []int) (keyT, bool) {
		var sb strings.Builder
		for _, p := range pos {
			if row[p].IsNull() {
				return "", false
			}
			sb.WriteString(row[p].String())
			sb.WriteByte('\x00')
		}
		return keyT(sb.String()), true
	}
	table := make(map[keyT][]catalog.Row, len(innerRows))
	for _, r := range innerRows {
		if k, ok := hashKey(r, innerKeyPos); ok {
			table[k] = append(table[k], r)
		}
	}
	var out []catalog.Row
	for _, orow := range outerRows {
		k, ok := hashKey(orow, outerKeyPos)
		if !ok {
			continue
		}
		for _, irow := range table[k] {
			out = append(out, append(append(catalog.Row{}, orow...), irow...))
		}
	}
	return ex.applyJoinResidual(n, joined, out)
}

func (ex *Executor) execMergeJoin(n *optimizer.Node, io *storage.IOCounter) (*rowSchema, []catalog.Row, error) {
	outerRS, outerRows, err := ex.exec(n.Children[0], io)
	if err != nil {
		return nil, nil, err
	}
	innerRS, innerRows, err := ex.exec(n.Children[1], io)
	if err != nil {
		return nil, nil, err
	}
	joined := outerRS.concat(innerRS)
	e0 := n.JoinEdges[0]
	op, err := outerRS.lookup(strings.ToLower(e0.LeftTable), strings.ToLower(e0.LeftColumn))
	if err != nil {
		return nil, nil, err
	}
	ip, err := innerRS.lookup(strings.ToLower(e0.RightTable), strings.ToLower(e0.RightColumn))
	if err != nil {
		return nil, nil, err
	}

	var out []catalog.Row
	i, j := 0, 0
	for i < len(outerRows) && j < len(innerRows) {
		ov, iv := outerRows[i][op], innerRows[j][ip]
		if ov.IsNull() {
			i++
			continue
		}
		if iv.IsNull() {
			j++
			continue
		}
		c := ov.Compare(iv)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Emit the cross product of the equal groups.
			iEnd := i
			for iEnd < len(outerRows) && !outerRows[iEnd][op].IsNull() && outerRows[iEnd][op].Equal(ov) {
				iEnd++
			}
			jEnd := j
			for jEnd < len(innerRows) && !innerRows[jEnd][ip].IsNull() && innerRows[jEnd][ip].Equal(iv) {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					combined := append(append(catalog.Row{}, outerRows[a]...), innerRows[b]...)
					ok, err := ex.edgesMatch(n.JoinEdges[1:], joined, combined)
					if err != nil {
						return nil, nil, err
					}
					if ok {
						out = append(out, combined)
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return ex.applyJoinResidual(n, joined, out)
}

func (ex *Executor) execSort(n *optimizer.Node, io *storage.IOCounter) (*rowSchema, []catalog.Row, error) {
	rs, rows, err := ex.exec(n.Children[0], io)
	if err != nil {
		return nil, nil, err
	}
	type keyPos struct {
		pos  int
		desc bool
	}
	keys := make([]keyPos, 0, len(n.SortKeys))
	for _, k := range n.SortKeys {
		if k.Column == "<expr>" {
			return nil, nil, errors.New("executor: expression sort keys are not supported")
		}
		p, err := rs.lookup(k.Table, k.Column)
		if err != nil {
			return nil, nil, err
		}
		keys = append(keys, keyPos{pos: p, desc: k.Desc})
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range keys {
			c := rows[a][k.pos].Compare(rows[b][k.pos])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return rs, rows, nil
}

func (ex *Executor) execHashAgg(n *optimizer.Node, io *storage.IOCounter) (*rowSchema, []catalog.Row, error) {
	rs, rows, err := ex.exec(n.Children[0], io)
	if err != nil {
		return nil, nil, err
	}
	groupPos := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		p, err := rs.lookup(g.Table, g.Column)
		if err != nil {
			return nil, nil, err
		}
		groupPos[i] = p
	}
	argPos := make([]int, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Star || a.Arg == nil {
			argPos[i] = -1
			continue
		}
		p, err := rs.lookup(a.Arg.Table, a.Arg.Column)
		if err != nil {
			return nil, nil, err
		}
		argPos[i] = p
	}

	type aggState struct {
		groupVals catalog.Row
		count     int64
		counts    []int64 // per-agg non-null count
		sums      []float64
		mins      []catalog.Datum
		maxs      []catalog.Datum
	}
	groups := make(map[string]*aggState)
	var order []string
	for _, r := range rows {
		var kb strings.Builder
		for _, p := range groupPos {
			kb.WriteString(r[p].String())
			kb.WriteByte('\x00')
		}
		k := kb.String()
		st, ok := groups[k]
		if !ok {
			st = &aggState{
				counts: make([]int64, len(n.Aggs)),
				sums:   make([]float64, len(n.Aggs)),
				mins:   make([]catalog.Datum, len(n.Aggs)),
				maxs:   make([]catalog.Datum, len(n.Aggs)),
			}
			for _, p := range groupPos {
				st.groupVals = append(st.groupVals, r[p])
			}
			groups[k] = st
			order = append(order, k)
		}
		st.count++
		for i := range n.Aggs {
			if argPos[i] < 0 {
				st.counts[i]++
				continue
			}
			v := r[argPos[i]]
			if v.IsNull() {
				continue
			}
			st.counts[i]++
			st.sums[i] += v.AsFloat()
			if st.mins[i].IsNull() || v.Less(st.mins[i]) {
				st.mins[i] = v
			}
			if st.maxs[i].IsNull() || st.maxs[i].Less(v) {
				st.maxs[i] = v
			}
		}
	}
	// With no GROUP BY and no input rows, aggregates still yield one row.
	if len(groups) == 0 && len(groupPos) == 0 {
		st := &aggState{
			counts: make([]int64, len(n.Aggs)),
			sums:   make([]float64, len(n.Aggs)),
			mins:   make([]catalog.Datum, len(n.Aggs)),
			maxs:   make([]catalog.Datum, len(n.Aggs)),
		}
		groups[""] = st
		order = append(order, "")
	}

	// Output schema: group columns, then one synthetic column per aggregate.
	cols := make([]ColID, 0, len(groupPos)+len(n.Aggs))
	for _, g := range n.GroupBy {
		cols = append(cols, ColID{Table: strings.ToLower(g.Table), Column: strings.ToLower(g.Column)})
	}
	for i, a := range n.Aggs {
		cols = append(cols, ColID{Table: "", Column: aggColName(a, i)})
	}
	outRS := newRowSchema(cols)

	var out []catalog.Row
	for _, k := range order {
		st := groups[k]
		row := append(catalog.Row{}, st.groupVals...)
		for i, a := range n.Aggs {
			row = append(row, finishAgg(a, st.count, st.counts[i], st.sums[i], st.mins[i], st.maxs[i]))
		}
		out = append(out, row)
	}

	// HAVING: evaluate against a schema extended with aggregate aliases is
	// complex; the dialect restricts HAVING to aggregate comparisons, which
	// the planner stored in n.Filter. Those reference aggregate calls, so
	// they are evaluated here by recomputing against the synthetic columns.
	if len(n.Filter) > 0 {
		filters := make([]sqlparse.Expr, len(n.Filter))
		for i, f := range n.Filter {
			filters[i] = rewriteAggRefs(f, n)
		}
		kept := out[:0]
		for gi, r := range out {
			keep := true
			for _, f := range filters {
				v, err := evalExpr(f, outRS, r)
				if err != nil {
					return nil, nil, err
				}
				if v.IsNull() || !truthy(v) {
					keep = false
					break
				}
			}
			if keep {
				kept = append(kept, out[gi])
			}
		}
		out = kept
	}
	return outRS, out, nil
}

// aggColName names the synthetic output column of aggregate i.
func aggColName(a optimizer.AggSpec, i int) string {
	return fmt.Sprintf("agg%d_%s", i, strings.ToLower(string(a.Func)))
}

// finishAgg produces the final value of one aggregate.
func finishAgg(a optimizer.AggSpec, groupCount, nonNull int64, sum float64, min, max catalog.Datum) catalog.Datum {
	switch a.Func {
	case sqlparse.AggCount:
		if a.Star {
			return catalog.Int(groupCount)
		}
		return catalog.Int(nonNull)
	case sqlparse.AggSum:
		if nonNull == 0 {
			return catalog.Null()
		}
		return catalog.Float(sum)
	case sqlparse.AggAvg:
		if nonNull == 0 {
			return catalog.Null()
		}
		return catalog.Float(sum / float64(nonNull))
	case sqlparse.AggMin:
		return min
	case sqlparse.AggMax:
		return max
	default:
		return catalog.Null()
	}
}

// rewriteAggRefs replaces every aggregate call, wherever it sits in e, with
// a reference to the matching synthetic aggregate column of n.
func rewriteAggRefs(e sqlparse.Expr, n *optimizer.Node) sqlparse.Expr {
	return sqlparse.Rewrite(e, func(e sqlparse.Expr) sqlparse.Expr {
		if f, ok := e.(*sqlparse.FuncExpr); ok {
			for i, a := range n.Aggs {
				if matchAgg(f, a) {
					return &sqlparse.ColumnRef{Column: aggColName(a, i)}
				}
			}
		}
		return e
	})
}

func matchAgg(f *sqlparse.FuncExpr, a optimizer.AggSpec) bool {
	if f.Func != a.Func || f.Star != a.Star {
		return false
	}
	if f.Star {
		return true
	}
	fc, ok := f.Arg.(*sqlparse.ColumnRef)
	if !ok || a.Arg == nil {
		return false
	}
	return strings.EqualFold(fc.Table, a.Arg.Table) && strings.EqualFold(fc.Column, a.Arg.Column)
}

func (ex *Executor) execProject(n *optimizer.Node, io *storage.IOCounter) (*rowSchema, []catalog.Row, error) {
	rs, rows, err := ex.exec(n.Children[0], io)
	if err != nil {
		return nil, nil, err
	}
	// Star: pass everything through.
	if len(n.Projections) == 1 {
		if _, ok := n.Projections[0].Expr.(*sqlparse.StarExpr); ok {
			return rs, rows, nil
		}
	}
	cols := make([]ColID, 0, len(n.Projections))
	child := n.Children[0]
	aggCtx := findAgg(child)
	for i, p := range n.Projections {
		name := p.Alias
		if name == "" {
			if col, ok := p.Expr.(*sqlparse.ColumnRef); ok {
				cols = append(cols, ColID{Table: strings.ToLower(col.Table), Column: strings.ToLower(col.Column)})
				continue
			}
			name = fmt.Sprintf("col%d", i)
		}
		cols = append(cols, ColID{Column: strings.ToLower(name)})
	}
	outRS := newRowSchema(cols)
	exprs := make([]sqlparse.Expr, len(n.Projections))
	for i, p := range n.Projections {
		exprs[i] = p.Expr
		if aggCtx != nil {
			exprs[i] = rewriteAggRefs(p.Expr, aggCtx)
		}
	}
	out := make([]catalog.Row, 0, len(rows))
	for _, r := range rows {
		row := make(catalog.Row, 0, len(n.Projections))
		for _, expr := range exprs {
			v, err := evalExpr(expr, rs, r)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return outRS, out, nil
}

// findAgg locates the aggregation node beneath sorts/limits so projections
// can reference aggregate outputs.
func findAgg(n *optimizer.Node) *optimizer.Node {
	switch n.Kind {
	case optimizer.NodeHashAgg:
		return n
	case optimizer.NodeSort, optimizer.NodeLimit:
		return findAgg(n.Children[0])
	default:
		return nil
	}
}
