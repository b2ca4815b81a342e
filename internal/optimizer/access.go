package optimizer

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// TableAccess is the per-table access summary INUM plugs into cached plans:
// the cheapest way to deliver one table's rows (optionally in a required
// order) under a table design.
type TableAccess struct {
	Node *Node
	// Cost is the access cost including any sort needed to satisfy the
	// required order.
	Cost float64
	// Sorted reports whether an explicit sort was added on top of the path.
	Sorted bool
}

// CanUse reports whether the structure could enter some plan of the
// resolved statement through its table (lower-case): the exact-conservative
// mirror of the keep rule in indexAccess and of mvScan's preconditions. A
// row structure is usable only when its leading column is one of the
// statement's Leads — indexAccess keeps a path that matches a filter on it,
// delivers a wanted order (ORDER BY, a merge-join key) or probes a join key
// (innerIndexPath), and INUM's templates only ask orders of those columns —
// or when it covers every column the statement reads from the table and the
// statement is not SELECT * (index-only scans). An aggregate view is usable
// only as a whole-query rewrite of a single-table aggregate query whose
// plain group keys are a subset of the view's keys. A structure failing
// these tests is invisible to every costing of the statement: adding or
// dropping it cannot change a cost.
func CanUse(sel *sqlparse.SelectStmt, table string, ix *catalog.Index) bool {
	a := sel.Analysis()
	if ix.Kind == catalog.KindAggView {
		return aggViewApplies(a.Footprint, ix)
	}
	lead := ix.LeadingColumn()
	for l := range sel.Leads {
		if strings.EqualFold(l.Column, lead) && strings.EqualFold(l.Table, table) {
			return true
		}
	}
	return !a.Star && ix.CoversAll(a.ColumnsOf(table))
}

// aggViewApplies is CanUse for aggregate views (the full applicability
// check in mvScan also inspects filters and aggregate coverage).
func aggViewApplies(f *sqlparse.Footprint, mv *catalog.Index) bool {
	if len(f.Tables) != 1 || !f.Aggregate || !f.PlainGroups {
		return false
	}
	for _, k := range f.GroupKeys {
		if !slices.ContainsFunc(mv.Columns, func(col string) bool { return catalog.NormCol(col) == k }) {
			return false
		}
	}
	return true
}

// BestTableAccess computes the cheapest access path for one base table of a
// resolved query under the table design d (e.Config is not consulted),
// optionally required to deliver the given sort order. It runs only
// single-table path generation — no join search — which is what makes
// INUM's configuration sweep orders of magnitude cheaper than full
// re-optimization (experiment E8).
func (e *Env) BestTableAccess(sel *sqlparse.SelectStmt, table string, d TableDesign, required []OrderKey) (TableAccess, error) {
	s, err := e.scanOf(sel, table, d)
	if err != nil {
		return TableAccess{}, err
	}
	c := s.choose(required)
	return TableAccess{Node: s.node(c), Cost: c.cost, Sorted: c.sorted}, nil
}

// scanOf starts access-path selection for one table of a resolved query.
func (e *Env) scanOf(sel *sqlparse.SelectStmt, table string, d TableDesign) (tableScan, error) {
	if e.Schema.Table(table) == nil {
		return tableScan{}, fmt.Errorf("optimizer: unknown table %q", table)
	}
	a, lt := sel.Analysis(), strings.ToLower(table)
	return e.newTableScan(lt, d, a.FiltersOf(lt), a.ColumnsOf(lt), a.Star), nil
}

// AccessTerms is the Cost of BestTableAccess per required order (nil = any
// order) split by structure, sharing the table's scan analysis and building
// no plan node. Per required order, base gets the sequential scan's cost
// (sorted when the order asks for one), and terms, structure by structure
// of d, the cost of the cheapest path through that structure alone,
// delivering the order or sorted, or +Inf when it offers none (an aggregate
// view offers none). BestTableAccess's cost under any subset of d's
// structures is, order by order, the min of base and the subset's terms,
// bit for bit: a path's cost does not depend on the other structures, and
// rounding is monotone, so fl(min(a,b)+c) = min(fl(a+c), fl(b+c)). Only base
// depends on d's layouts. This is what INUM prices a structure with, once a
// question.
func (e *Env) AccessTerms(sel *sqlparse.SelectStmt, table string, d TableDesign, orders [][]OrderKey, base, terms []float64) ([]float64, []float64, error) {
	s, err := e.scanOf(sel, table, d)
	if err != nil {
		return base, terms, err
	}
	_, sortTotal := e.Params.sortCost(s.outRows)
	for _, required := range orders {
		if len(required) == 0 {
			base = append(base, s.seqCost)
		} else {
			base = append(base, s.seqCost+sortTotal)
		}
	}
	for _, ix := range d.Indexes {
		for _, required := range orders {
			terms = append(terms, s.through(ix, required, sortTotal))
		}
	}
	return base, terms, nil
}

// through is the cost of the cheapest path through ix alone for the required
// order: the index scan when it delivers the order, else the scan sorted
// (sorting costs no less than nothing).
func (s *tableScan) through(ix *catalog.Index, required []OrderKey, sortTotal float64) float64 {
	if s.e.Opts.DisableIndexScan || ix.Kind == catalog.KindAggView {
		return math.Inf(1)
	}
	var wanted [][]OrderKey
	if len(required) > 0 {
		wanted = [][]OrderKey{required}
	}
	u, ok := s.indexAccess(ix, wanted)
	switch {
	case !ok:
		return math.Inf(1)
	case len(required) == 0:
		return u.total
	case indexDelivers(s.table, ix, required, false) || indexDelivers(s.table, ix, required, true):
		return u.total
	}
	return u.total + sortTotal
}

// accessChoice is the outcome of access-path selection for one required
// order: the winning path (ix == nil: the sequential scan), whether it is
// scanned backward, and its cost including the sort when one is needed.
type accessChoice struct {
	ix       *catalog.Index
	use      indexUse
	backward bool
	cost     float64
	sorted   bool
}

// choose picks the table's cheapest access under its design. No path that
// loses is ever built: candidates are compared as index uses, by value.
func (s *tableScan) choose(required []OrderKey) accessChoice {
	var wanted [][]OrderKey
	if len(required) > 0 {
		wanted = [][]OrderKey{required}
	}
	// cheap is the cheapest path of any order; ordered the cheapest that
	// delivers the required order, scanning forward or backward. Ties keep
	// the earlier path, as cheapest() does.
	cheap := accessChoice{cost: s.seqCost}
	ordered, haveOrdered := accessChoice{}, false
	if !s.e.Opts.DisableIndexScan {
		for _, ix := range s.indexes {
			if ix.Kind == catalog.KindAggView {
				continue
			}
			u, ok := s.indexAccess(ix, wanted)
			if !ok {
				continue
			}
			if u.total < cheap.cost {
				cheap = accessChoice{ix: ix, use: u, cost: u.total}
			}
			if len(required) == 0 {
				continue
			}
			forward := indexDelivers(s.table, ix, required, false)
			if (forward || indexDelivers(s.table, ix, required, true)) && (!haveOrdered || u.total < ordered.cost) {
				ordered, haveOrdered = accessChoice{ix: ix, use: u, backward: !forward, cost: u.total}, true
			}
		}
	}
	if len(required) == 0 {
		return cheap
	}
	// Prefer a path that already delivers the order; otherwise sort the
	// cheapest one (every path of a table estimates the same row count).
	_, sortTotal := s.e.Params.sortCost(s.outRows)
	sortedCost := cheap.cost + sortTotal
	if haveOrdered && ordered.cost <= sortedCost {
		return ordered
	}
	cheap.cost, cheap.sorted = sortedCost, true
	return cheap
}

// node builds the scan node of a choice.
func (s *tableScan) node(c accessChoice) *Node {
	if c.ix == nil {
		return s.seqNode()
	}
	n := s.indexNode(c.ix, c.use)
	if c.backward {
		n.Backward = true
		for i := range n.Order {
			n.Order[i].Desc = true
		}
	}
	return n
}
