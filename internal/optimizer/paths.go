package optimizer

import (
	"math"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// TableDesign is the slice of a physical configuration one table's access
// paths can see: the structures defined on the table and its partition
// layouts. Nothing else in a Configuration can change what scanPaths or
// BestTableAccess compute for that table.
type TableDesign struct {
	Indexes    []*catalog.Index
	Vertical   *catalog.VerticalLayout
	Horizontal *catalog.HorizontalLayout
}

// tableScan holds what every access path of one table shares: the
// structures to try, the query's filters and needed columns on the table,
// the row estimates, and the sequential scan's cost under the table's
// partition layouts.
type tableScan struct {
	e       *Env
	table   string
	indexes []*catalog.Index
	filters []sqlparse.Expr
	needed  map[string]bool
	star    bool
	ts      *stats.TableStats
	rows    float64
	baseSel float64
	outRows float64
	seqCost float64
}

func (e *Env) newTableScan(table string, d TableDesign, filters []sqlparse.Expr, needed map[string]bool, star bool) tableScan {
	ts := e.tableStats(table)
	rows := float64(ts.RowCount)
	baseSel := e.SelectivityAll(filters)
	outRows := math.Max(rows*baseSel, 0)
	if outRows < 1 && rows > 0 {
		outRows = 1
	}
	fp := e.scanFootprint(table, d.Vertical, d.Horizontal, ts, filters, needed, star)
	seqCost := e.Params.seqScanCost(fp.Pages, fp.CPURows, len(filters)) + fp.StitchCPU
	if e.Opts.DisableSeqScan {
		seqCost += 1e7 // discouraged, not impossible (PostgreSQL's enable_seqscan)
	}
	return tableScan{
		e: e, table: table, indexes: d.Indexes, filters: filters, needed: needed, star: star,
		ts: ts, rows: rows, baseSel: baseSel, outRows: outRows, seqCost: seqCost,
	}
}

// seqNode is the sequential scan, always available as the fallback.
func (s *tableScan) seqNode() *Node {
	return &Node{
		Kind:      NodeSeqScan,
		Table:     s.table,
		Filter:    s.filters,
		EstRows:   s.outRows,
		TotalCost: s.seqCost,
	}
}

// scanPaths makes the access paths of table t the search's candidates: a
// sequential scan (partition-aware), plus one path per usable index (index
// scan or index-only scan) under the table's design. Wanted orders are
// single-table sort orders that would be useful upstream (ORDER BY, GROUP
// BY, merge-join keys); full index scans that deliver one are kept even
// without matching predicates.
func (s *search) scanPaths(t int) {
	sc := &s.scans[t]
	s.cands = append(s.cands[:0], path{kind: NodeSeqScan, table: int32(t), rows: sc.outRows, total: sc.seqCost})
	if s.env.Opts.DisableIndexScan {
		return
	}
	for _, ix := range sc.indexes {
		if ix.Kind == catalog.KindAggView {
			continue // aggregate views rewrite whole queries, not row scans
		}
		u, ok := sc.indexAccess(ix, s.wantedOrders)
		if !ok {
			continue
		}
		p := path{kind: NodeIndexScan, table: int32(t), rows: sc.outRows, startup: u.startup, total: u.total, ord: order{ix: ix, table: sc.table}}
		if u.indexOnly {
			p.kind = NodeIndexOnlyScan
		}
		s.cands = append(s.cands, p)
		// A backward twin serves, at equal cost, a descending wanted order
		// the forward scan cannot.
		for _, w := range s.wantedOrders {
			if len(w) > 0 && indexDelivers(sc.table, ix, w, true) && !indexDelivers(sc.table, ix, w, false) {
				p.ord.desc = true
				s.cands = append(s.cands, p)
				break
			}
		}
	}
}

// indexDelivers reports whether scanning the index forward (desc false: its
// columns ascending) or backward (all descending) satisfies the wanted
// order — orderSatisfies against the order the scan would deliver, without
// building it.
func indexDelivers(table string, ix *catalog.Index, want []OrderKey, desc bool) bool {
	if len(want) > len(ix.Columns) {
		return false
	}
	for i, w := range want {
		if !strings.EqualFold(table, w.Table) || !strings.EqualFold(ix.Columns[i], w.Column) || w.Desc != desc {
			return false
		}
	}
	return true
}

// indexUse is the best use of one index for a table's filters: what the
// leading columns matched, what is left to filter, and the price. It is a
// value, so an index that loses to another path costs no allocation beyond
// the bounds it matched.
type indexUse struct {
	eqVals   []catalog.Datum
	inVals   []catalog.Datum
	hasRange bool
	loVal    catalog.Datum
	hiVal    catalog.Datum
	loIncl   bool
	hiIncl   bool
	// residual is what the index did not match; it aliases the table's
	// filter list when nothing matched.
	residual  []sqlparse.Expr
	indexOnly bool
	startup   float64
	total     float64
}

// indexAccess works out the best use of one index for the table's filters,
// or reports false when the index is useless for this query.
func (s *tableScan) indexAccess(ix *catalog.Index, wantedOrders [][]OrderKey) (indexUse, bool) {
	e := s.e
	var u indexUse

	// Match filters against the index's leading columns: an equality per
	// column while possible, then one IN-list (multi-probe) or one range
	// bound, then stop. A range may also follow the IN column, applied per
	// probe.
	remaining := s.filters
	owned := false // remaining is copied before its first removal
	drop := func(i int) {
		if !owned {
			remaining = append([]sqlparse.Expr(nil), remaining...)
			owned = true
		}
		remaining = append(remaining[:i], remaining[i+1:]...)
	}
	indexSel := 1.0
	matchedAny := false

	// matchRange consumes range conjuncts on idxCol into the range bound and
	// reports whether anything matched.
	matchRange := func(idxCol string) bool {
		lo, hi := catalog.Null(), catalog.Null()
		loIncl, hiIncl := false, false
		rangeSel := 1.0
		found := false
		for i := 0; i < len(remaining); {
			sr, ok := sqlparse.SargableOf(remaining[i])
			if !ok || !strings.EqualFold(sr.Column, idxCol) || !sr.IsRange {
				i++
				continue
			}
			switch {
			case !sr.Hi.IsNull(): // BETWEEN
				lo, hi, loIncl, hiIncl = sr.Value, sr.Hi, true, true
			case sr.Op == sqlparse.OpGt:
				lo, loIncl = sr.Value, false
			case sr.Op == sqlparse.OpGe:
				lo, loIncl = sr.Value, true
			case sr.Op == sqlparse.OpLt:
				hi, hiIncl = sr.Value, false
			case sr.Op == sqlparse.OpLe:
				hi, hiIncl = sr.Value, true
			}
			rangeSel *= e.Selectivity(remaining[i])
			drop(i)
			found = true
		}
		if found {
			u.hasRange = true
			u.loVal, u.hiVal, u.loIncl, u.hiIncl = lo, hi, loIncl, hiIncl
			indexSel *= rangeSel
			matchedAny = true
		}
		return found
	}

	for pos, idxCol := range ix.Columns {
		// Find an equality conjunct on idxCol.
		found := -1
		var foundSr sqlparse.SargableRef
		for i, f := range remaining {
			sr, ok := sqlparse.SargableOf(f)
			if ok && strings.EqualFold(sr.Column, idxCol) && sr.IsEquality {
				// IN lists are equality-shaped but need multiple probes;
				// treat single-value IN as equality here, longer lists as a
				// multi-probe below.
				if in, isIn := f.(*sqlparse.InExpr); isIn && len(in.List) > 1 {
					continue
				}
				found, foundSr = i, sr
				break
			}
		}
		if found >= 0 {
			u.eqVals = append(u.eqVals, foundSr.Value)
			indexSel *= e.Selectivity(remaining[found])
			drop(found)
			matchedAny = true
			continue
		}
		// Multi-probe: an IN-list over literals on this column probes the
		// index once per value and ends the prefix.
		inFound := -1
		for i, f := range remaining {
			in, isIn := f.(*sqlparse.InExpr)
			if !isIn || len(in.List) < 2 {
				continue
			}
			col, colOK := in.E.(*sqlparse.ColumnRef)
			if !colOK || !strings.EqualFold(col.Column, idxCol) {
				continue
			}
			allLit := true
			for _, item := range in.List {
				if _, ok := item.(*sqlparse.Literal); !ok {
					allLit = false
					break
				}
			}
			if allLit {
				inFound = i
				break
			}
		}
		if inFound >= 0 {
			in := remaining[inFound].(*sqlparse.InExpr)
			for _, item := range in.List {
				u.inVals = append(u.inVals, item.(*sqlparse.Literal).Value)
			}
			// Probing in ascending value order keeps the concatenated
			// output globally sorted in index order.
			sort.Slice(u.inVals, func(a, b int) bool { return u.inVals[a].Less(u.inVals[b]) })
			indexSel *= e.Selectivity(in)
			drop(inFound)
			matchedAny = true
			// A range on the column after the IN applies within each probe.
			if pos+1 < len(ix.Columns) {
				matchRange(ix.Columns[pos+1])
			}
			break
		}
		// No equality: try range bounds on this column, then stop.
		matchRange(idxCol)
		break
	}

	u.residual = remaining
	u.indexOnly = !s.star && ix.CoversAll(s.needed) && len(remaining) == 0

	if !matchedAny && !u.indexOnly {
		// A full index scan is only worth keeping when it delivers a wanted
		// order (forward or backward) or can answer the query from the
		// index alone.
		deliversWanted := false
		for _, w := range wantedOrders {
			if len(w) > 0 && (indexDelivers(s.table, ix, w, false) || indexDelivers(s.table, ix, w, true)) {
				deliversWanted = true
				break
			}
		}
		if !deliversWanted {
			return indexUse{}, false
		}
	}

	corr := 0.0
	if cs := s.ts.Column(ix.LeadingColumn()); cs != nil {
		corr = cs.Correlation
	}
	geom := e.geometry(ix, s.ts)
	heapSel := indexSel
	u.startup, u.total = e.Params.indexScanCost(
		geom, float64(s.ts.Pages), s.rows, indexSel, heapSel, corr,
		u.indexOnly, len(remaining), 1,
	)
	// A multi-probe scan repeats the tree descent once per IN value.
	if probes := len(u.inVals); probes > 1 {
		extra := float64(probes-1) * float64(geom.height) * e.Params.RandomPageCost * 0.5
		u.total += extra
	}
	return u, true
}

// indexNode builds the scan node of a kept index use. Delivered order: the
// index's columns ascending.
func (s *tableScan) indexNode(ix *catalog.Index, u indexUse) *Node {
	n := &Node{
		Kind:        NodeIndexScan,
		Table:       s.table,
		Index:       ix,
		EqVals:      u.eqVals,
		HasRange:    u.hasRange,
		LoVal:       u.loVal,
		HiVal:       u.hiVal,
		LoIncl:      u.loIncl,
		HiIncl:      u.hiIncl,
		InVals:      u.inVals,
		Filter:      u.residual,
		EstRows:     s.outRows,
		StartupCost: u.startup,
		TotalCost:   u.total,
		Order:       make([]OrderKey, len(ix.Columns)),
	}
	if u.indexOnly {
		n.Kind = NodeIndexOnlyScan
	}
	for i, c := range ix.Columns {
		n.Order[i] = OrderKey{Table: s.table, Column: c}
	}
	return n
}

// indexProbe is a parameterized index scan priced by value: the inner side
// of a nested-loop join, probed once per outer row.
type indexProbe struct {
	ix                   *catalog.Index
	kind                 NodeKind
	rows, startup, total float64
}

// innerIndexPath prices the cheapest parameterized index scan of `table`
// keyed by the join column, over the table's structures, for use as the
// inner side of a nested-loop join re-executed `loops` times. Its index is
// nil when no index leads with the join column.
func (e *Env) innerIndexPath(
	table string, indexes []*catalog.Index, joinColumn string,
	filters []sqlparse.Expr,
	needed map[string]bool, star bool,
	loops float64,
) (best indexProbe) {
	if e.Opts.DisableIndexScan {
		return best
	}
	ts := e.tableStats(table)
	rows := float64(ts.RowCount)

	for _, ix := range indexes {
		if ix.Kind == catalog.KindAggView {
			continue
		}
		if !strings.EqualFold(ix.LeadingColumn(), joinColumn) {
			continue
		}
		p := indexProbe{ix: ix, kind: NodeIndexScan}
		// Selectivity of one probe: rows per distinct join key.
		perKey := 1.0
		if d := e.distinctOf(table, joinColumn, rows); d > 0 {
			perKey = 1 / d
		}
		indexSel := perKey
		filterSel := e.SelectivityAll(filters)
		p.rows = math.Max(rows*indexSel*filterSel, 0)

		indexOnly := !star && ix.CoversAll(needed) && len(filters) == 0
		if indexOnly {
			p.kind = NodeIndexOnlyScan
		}
		corr := 0.0
		if cs := ts.Column(ix.LeadingColumn()); cs != nil {
			corr = cs.Correlation
		}
		geom := e.geometry(ix, ts)
		p.startup, p.total = e.Params.indexScanCost(
			geom, float64(ts.Pages), rows, indexSel, indexSel, corr,
			indexOnly, len(filters), loops,
		)
		if best.ix == nil || p.total < best.total {
			best = p
		}
	}
	return best
}

// ScanFootprint is everything a table's partition layouts change about one
// query's access to the table: the pages and rows its sequential scan reads
// and the CPU of stitching vertical fragments back together. newTableScan
// reads the layouts through nothing else, so two designs of a table with the
// same structures and the same footprint price every access path alike.
type ScanFootprint struct {
	Pages     float64
	CPURows   float64
	StitchCPU float64
}

// LayoutFootprint is the footprint of a resolved query's access to table
// under the vertical and horizontal layouts (either may be nil), and whether
// it differs from the unpartitioned table's. It reads the layouts as they
// are now, and allocates nothing.
func (e *Env) LayoutFootprint(sel *sqlparse.SelectStmt, table string, v *catalog.VerticalLayout, h *catalog.HorizontalLayout) (ScanFootprint, bool) {
	a, lt := sel.Analysis(), strings.ToLower(table)
	ts := e.tableStats(lt)
	fp := e.scanFootprint(lt, v, h, ts, a.FiltersOf(lt), a.ColumnsOf(lt), a.Star)
	return fp, fp != ScanFootprint{Pages: float64(ts.Pages), CPURows: float64(ts.RowCount)}
}

// scanFootprint adapts a sequential scan's page and CPU footprint to the
// table's partition layouts (the what-if table component, §3.1b):
//
//   - A vertical layout means only fragments containing needed columns are
//     scanned; reading k>1 fragments adds a primary-key stitch cost.
//     Fragment columns are lower-case (Configuration.SetVertical makes
//     them so), as needed's keys are.
//   - A horizontal layout prunes range fragments that cannot satisfy a
//     sargable predicate on the partition column.
func (e *Env) scanFootprint(
	table string, v *catalog.VerticalLayout, h *catalog.HorizontalLayout,
	ts *stats.TableStats, filters []sqlparse.Expr,
	needed map[string]bool, star bool,
) ScanFootprint {
	rows := float64(ts.RowCount)
	fp := ScanFootprint{Pages: float64(ts.Pages), CPURows: rows}
	t := e.Schema.Table(table)
	if t == nil {
		return fp
	}

	// Vertical layout: scan only the fragments covering needed columns.
	if v != nil && !star {
		fullWidth := float64(t.RowWidthBytes())
		pkWidth := 24 // tuple header
		for _, pk := range t.PrimaryKey {
			if c := t.Column(pk); c != nil {
				pkWidth += c.WidthBytes()
			}
		}
		fragsUsed := 0
		var scanWidth float64
		for _, frag := range v.Fragments {
			used := false
			for _, col := range frag {
				if needed[col] {
					used = true
					break
				}
			}
			if !used {
				continue
			}
			fragsUsed++
			w := float64(pkWidth)
			for _, col := range frag {
				if c := t.Column(col); c != nil {
					w += float64(c.WidthBytes())
				}
			}
			scanWidth += w
		}
		if fragsUsed == 0 {
			// Query touches only PK columns: any single fragment serves.
			fragsUsed = 1
			scanWidth = float64(pkWidth)
		}
		frac := scanWidth / fullWidth
		if frac > 1 {
			frac = 1
		}
		fp.Pages = math.Max(math.Ceil(fp.Pages*frac), 1)
		if fragsUsed > 1 {
			// Stitching fragments back together on the PK: hash-join-like
			// CPU per row per extra fragment.
			fp.StitchCPU = rows * float64(fragsUsed-1) *
				(e.Params.CPUOperatorCost*2 + e.Params.CPUTupleCost)
		}
	}

	// Horizontal layout: prune fragments by sargable bounds on the
	// partition column.
	if h != nil {
		frac := e.horizontalCoverage(table, h, filters)
		fp.Pages = math.Max(math.Ceil(fp.Pages*frac), 1)
		fp.CPURows = math.Max(rows*frac, 1)
	}
	return fp
}

// horizontalCoverage estimates the fraction of rows in fragments that
// survive pruning under the filters.
func (e *Env) horizontalCoverage(table string, h *catalog.HorizontalLayout, filters []sqlparse.Expr) float64 {
	// Collect bounds on the partition column.
	lo, hi := catalog.Null(), catalog.Null()
	bounded := false
	for _, f := range filters {
		sr, ok := sqlparse.SargableOf(f)
		if !ok || !strings.EqualFold(sr.Column, h.Column) {
			continue
		}
		switch {
		case sr.IsEquality:
			lo, hi, bounded = sr.Value, sr.Value, true
		case !sr.Hi.IsNull():
			lo, hi, bounded = sr.Value, sr.Hi, true
		case sr.Op == sqlparse.OpGt || sr.Op == sqlparse.OpGe:
			if lo.IsNull() || lo.Less(sr.Value) {
				lo = sr.Value
			}
			bounded = true
		case sr.Op == sqlparse.OpLt || sr.Op == sqlparse.OpLe:
			if hi.IsNull() || sr.Value.Less(hi) {
				hi = sr.Value
			}
			bounded = true
		}
	}
	if !bounded {
		return 1
	}
	// Extend [lo,hi] to fragment boundaries, then measure the row fraction
	// of the covered fragments with the column histogram.
	loFrag := 0
	if !lo.IsNull() {
		loFrag = h.FragmentFor(lo)
	}
	hiFrag := h.FragmentCount() - 1
	if !hi.IsNull() {
		hiFrag = h.FragmentFor(hi)
	}
	fragLo, fragHi := catalog.Null(), catalog.Null()
	if loFrag > 0 {
		fragLo = h.Bounds[loFrag-1]
	}
	if hiFrag < len(h.Bounds) {
		fragHi = h.Bounds[hiFrag]
	}
	cs := e.columnStats(table, h.Column)
	if cs == nil {
		covered := float64(hiFrag-loFrag+1) / float64(h.FragmentCount())
		return clamp01(covered)
	}
	return clamp01(cs.RangeSelectivity(fragLo, fragHi))
}
