package optimizer

import (
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// path is one plan the search considers, held by value: the estimates its
// parent reads, the order it delivers, and what it takes to build its node
// should it win. A path becomes nodes only through search.node, and only
// the winner ever does.
type path struct {
	kind                 NodeKind
	rows, startup, total float64
	ord                  order
	// Joins: the inputs — a parameterized nested loop has no inner path, its
	// inner is an index scan keyed by edges[probe] — and the join edges.
	outer, inner *path
	edges        []sqlparse.JoinEdge
	// table is a scan's FROM position (an index scan's index and direction
	// are its order's), or a parameterized nested loop's inner table.
	table, probe int32
	// sortOuter and sortInner tell a merge join to sort an input first.
	sortOuter, sortInner bool
}

// order is the sort order a path delivers, without building it: an index
// scan's columns on its table, forward or backward; a merge join's outer
// key (mergeKeys of its first edge); or none.
type order struct {
	ix    *catalog.Index
	table string
	desc  bool
	merge *sqlparse.JoinEdge
}

// satisfies is orderSatisfies against the delivered order.
func (o order) satisfies(want []OrderKey) bool {
	switch {
	case o.ix != nil:
		return indexDelivers(o.table, o.ix, want, o.desc)
	case o.merge != nil:
		have := [1]OrderKey{joinKey(o.merge.LeftTable, o.merge.LeftColumn)}
		return orderSatisfies(have[:], want)
	}
	return len(want) == 0
}

// search is the plan search over one resolved statement: per-table access
// paths, dynamic-programming join ordering with nested-loop / hash / merge
// methods, then the steps above the join. It compares plans as path
// records and builds nothing; Optimize builds its winner, Cost reads it.
type search struct {
	tail
	env          *Env
	tables       []string    // lower-case resolved names, FROM order
	scans        []tableScan // per table, FROM order
	joins        []sqlparse.JoinEdge
	residual     []sqlparse.Expr // cross-table and constant predicates
	resSel       float64
	wantedOrders [][]OrderKey
	memo         [][]path // the pruned paths of each relation set
	cands        []path   // the candidates of the relation set at hand

	// The winner: the cheapest finished path of the full set, or an
	// aggregate view answering the whole query.
	best  *path
	mv    *catalog.Index
	total float64
}

// maxPathsPerSet bounds the pruned path list kept per relation set.
const maxPathsPerSet = 5

// bestJoin runs the DP and returns the pruned path list for the full set.
func (s *search) bestJoin() []path {
	n := len(s.tables)
	full := (1 << n) - 1
	s.memo = make([][]path, full+1)
	// keep stores a relation set's pruned candidates. The candidate list is
	// reused by the next set, so every set but the last keeps a copy.
	keep := func(mask int) {
		kept := prunePaths(s.cands, s.wantedOrders)
		if mask != full {
			kept = slices.Clone(kept)
		}
		s.memo[mask] = kept
	}

	// Base: single-table access paths.
	for i := range s.scans {
		s.scanPaths(i)
		keep(1 << i)
	}
	if n == 1 {
		return s.memo[1]
	}

	// Enumerate subsets in increasing popcount.
	for size := 2; size <= n; size++ {
		for mask := 1; mask <= full; mask++ {
			if bits.OnesCount(uint(mask)) != size {
				continue
			}
			s.cands = s.cands[:0]
			connectedOnly := true
			for pass := 0; pass < 2 && len(s.cands) == 0; pass++ {
				if pass == 1 {
					connectedOnly = false // allow cross joins as a last resort
				}
				for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
					other := mask ^ sub
					if other == 0 || sub > other {
						continue // each unordered split once; roles tried inside
					}
					edges := s.connectingEdges(sub, other)
					if connectedOnly && len(edges) == 0 {
						continue
					}
					s.joinPair(sub, other, edges)
					s.joinPair(other, sub, s.connectingEdges(other, sub))
				}
			}
			keep(mask)
		}
	}
	return s.memo[full]
}

// connectingEdges returns join edges with one endpoint in each side,
// oriented so the left endpoint is in maskL.
func (s *search) connectingEdges(maskL, maskR int) []sqlparse.JoinEdge {
	var out []sqlparse.JoinEdge
	for _, e := range s.joins {
		lb := slices.Index(s.tables, strings.ToLower(e.LeftTable))
		rb := slices.Index(s.tables, strings.ToLower(e.RightTable))
		if lb < 0 || rb < 0 {
			continue
		}
		switch {
		case maskL&(1<<lb) != 0 && maskR&(1<<rb) != 0:
			out = append(out, e)
		case maskL&(1<<rb) != 0 && maskR&(1<<lb) != 0:
			out = append(out, sqlparse.JoinEdge{
				LeftTable: e.RightTable, LeftColumn: e.RightColumn,
				RightTable: e.LeftTable, RightColumn: e.LeftColumn,
				Pred: e.Pred,
			})
		}
	}
	return out
}

// joinKey is the ascending order on one endpoint of a join edge.
func joinKey(table, column string) OrderKey {
	return OrderKey{Table: strings.ToLower(table), Column: strings.ToLower(column)}
}

// mergeKeys are the orders a merge join on edge e needs of its outer and
// inner inputs.
func mergeKeys(e sqlparse.JoinEdge) (outer, inner []OrderKey) {
	return []OrderKey{joinKey(e.LeftTable, e.LeftColumn)}, []OrderKey{joinKey(e.RightTable, e.RightColumn)}
}

// joinPair adds the candidate joins with maskOuter as the outer side to
// s.cands. Edges are oriented outer(left) -> inner(right).
func (s *search) joinPair(maskOuter, maskInner int, edges []sqlparse.JoinEdge) {
	outers := s.memo[maskOuter]
	inners := s.memo[maskInner]
	if len(outers) == 0 || len(inners) == 0 {
		return
	}
	env := s.env

	// Join cardinality: product of inputs times edge selectivities.
	rowsOuter := outers[0].rows
	rowsInner := inners[0].rows
	sel := 1.0
	for _, e := range edges {
		sel *= env.joinSelectivity(e)
	}
	outRows := math.Max(rowsOuter*rowsInner*sel, 1)

	// --- Hash join: cheapest inputs, outer order preserved. ---------------
	if !env.Opts.DisableHashJoin && len(edges) > 0 {
		o, i := &outers[cheapest(outers, nil)], &inners[cheapest(inners, nil)]
		s.cands = append(s.cands, path{
			kind: NodeHashJoin, edges: edges, outer: o, inner: i, rows: outRows, ord: o.ord,
			startup: o.startup + i.total,
			total: o.total + i.total +
				env.Params.hashJoinCost(o.rows, i.rows, len(edges)) +
				outRows*env.Params.CPUTupleCost,
		})
	}

	// --- Merge join on the first edge. ------------------------------------
	if !env.Opts.DisableMergeJoin && len(edges) > 0 {
		wantO, wantI := mergeKeys(edges[0])
		o := s.withOrder(outers, wantO)
		i := s.withOrder(inners, wantI)
		s.cands = append(s.cands, path{
			kind: NodeMergeJoin, edges: edges, outer: o.p, inner: i.p, sortOuter: o.sorted, sortInner: i.sorted,
			rows: outRows, ord: order{merge: &edges[0]},
			startup: o.total + i.total,
			total: o.total + i.total +
				env.Params.mergeJoinCost(o.p.rows, i.p.rows, len(edges)) +
				outRows*env.Params.CPUTupleCost,
		})
	}

	// --- Nested loop. -------------------------------------------------------
	if !env.Opts.DisableNestLoop {
		// Parameterized index scan of a single inner table on a join column.
		if bits.OnesCount(uint(maskInner)) == 1 {
			t := bits.TrailingZeros(uint(maskInner))
			for k, e := range edges {
				if !strings.EqualFold(e.RightTable, s.tables[t]) {
					continue
				}
				o := &outers[cheapest(outers, nil)]
				probe := s.probe(t, e, math.Max(o.rows, 1))
				if probe.ix == nil {
					continue
				}
				s.cands = append(s.cands, path{
					kind: NodeNestLoop, edges: edges, outer: o, table: int32(t), probe: int32(k), rows: outRows, ord: o.ord,
					startup: o.startup,
					total: o.total +
						math.Max(o.rows, 1)*probe.total +
						outRows*env.Params.CPUTupleCost,
				})
			}
		}
		// Plain nested loop (inner re-scanned); usually dominated but it is
		// the only method for joins without equality edges.
		o, i := &outers[cheapest(outers, nil)], &inners[cheapest(inners, nil)]
		rescans := math.Max(o.rows, 1)
		s.cands = append(s.cands, path{
			kind: NodeNestLoop, edges: edges, outer: o, inner: i, rows: outRows, ord: o.ord,
			startup: o.startup + i.startup,
			total: o.total + rescans*i.total +
				rowsOuter*rowsInner*env.Params.CPUOperatorCost*float64(1+len(edges)) +
				outRows*env.Params.CPUTupleCost,
		})
	}
}

// input is how a join reads one of its input paths: as it is, or under an
// explicit sort whose estimates replace the path's.
type input struct {
	p              *path
	sorted         bool
	startup, total float64
}

// withOrder returns the cheapest way to obtain the wanted order from a
// non-empty path list: a path that already delivers it, or the cheapest path
// under an explicit sort.
func (s *search) withOrder(paths []path, want []OrderKey) input {
	best := cheapest(paths, want)
	cheap := &paths[cheapest(paths, nil)]
	sorted := top{rows: cheap.rows, total: cheap.total}
	sorted.sort(s.env.Params, nil)
	if best < 0 || sorted.total < paths[best].total {
		return input{p: cheap, sorted: true, startup: sorted.startup, total: sorted.total}
	}
	p := &paths[best]
	return input{p: p, startup: p.startup, total: p.total}
}

// cheapest returns the position of the path with the lowest total cost among
// those that deliver the wanted order (all of them for none), the first of
// equals; -1 when there is none.
func cheapest(paths []path, want []OrderKey) int {
	best := -1
	for i := range paths {
		if paths[i].ord.satisfies(want) && (best < 0 || paths[i].total < paths[best].total) {
			best = i
		}
	}
	return best
}

// prunePaths keeps the overall cheapest path plus the cheapest path per
// wanted order it satisfies, bounded by maxPathsPerSet, in the order given.
// It moves the kept paths to the front of the list and returns that prefix.
func prunePaths(paths []path, wantedOrders [][]OrderKey) []path {
	if len(paths) == 0 {
		return nil
	}
	keep := [maxPathsPerSet]int{cheapest(paths, nil)}
	kept := 1
	for _, w := range wantedOrders {
		if len(w) == 0 {
			continue
		}
		if best := cheapest(paths, w); best >= 0 && !slices.Contains(keep[:kept], best) {
			keep[kept] = best
			kept++
		}
		if kept >= maxPathsPerSet {
			break
		}
	}
	slices.Sort(keep[:kept])
	for j, i := range keep[:kept] {
		paths[j] = paths[i] // i >= j: moved forward in order, nothing kept is overwritten
	}
	return paths[:kept]
}

// node builds the plan node of a path and of the inputs it names: scans by
// their access choice, joins with their inputs (sorted first where a merge
// join priced a sort), and a parameterized nested loop's inner index scan.
// Every estimate is the one the search compared.
func (s *search) node(p *path) *Node {
	switch p.kind {
	case NodeSeqScan, NodeIndexScan, NodeIndexOnlyScan:
		sc := &s.scans[p.table]
		c := accessChoice{ix: p.ord.ix, backward: p.ord.desc}
		if c.ix != nil {
			c.use, _ = sc.indexAccess(c.ix, s.wantedOrders)
		}
		return sc.node(c)
	}
	o := s.node(p.outer)
	n := &Node{
		Kind:        p.kind,
		JoinEdges:   p.edges,
		EstRows:     p.rows,
		StartupCost: p.startup,
		TotalCost:   p.total,
		Order:       o.Order,
	}
	var i *Node
	switch {
	case p.kind == NodeMergeJoin:
		wantO, wantI := mergeKeys(p.edges[0])
		if p.sortOuter {
			o = s.env.Params.sortNode(o, wantO)
		}
		i = s.node(p.inner)
		if p.sortInner {
			i = s.env.Params.sortNode(i, wantI)
		}
		n.Order = wantO
	case p.inner == nil:
		e := p.edges[p.probe]
		probe := s.probe(int(p.table), e, math.Max(p.outer.rows, 1))
		i = &Node{
			Kind:             probe.kind,
			Table:            s.tables[p.table],
			Index:            probe.ix,
			ParamOuterTable:  strings.ToLower(e.LeftTable),
			ParamOuterColumn: strings.ToLower(e.LeftColumn),
			Filter:           s.scans[p.table].filters,
			EstRows:          probe.rows,
			StartupCost:      probe.startup,
			TotalCost:        probe.total,
		}
	default:
		i = s.node(p.inner)
	}
	n.Children = []*Node{o, i}
	return n
}

// probe prices the parameterized index scan of table t keyed by join edge e
// for a nested loop that runs it loops times.
func (s *search) probe(t int, e sqlparse.JoinEdge, loops float64) indexProbe {
	sc := &s.scans[t]
	return s.env.innerIndexPath(sc.table, e.RightColumn, sc.filters, sc.needed, sc.star, loops)
}
