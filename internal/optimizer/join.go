package optimizer

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

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
//
// A search is a workspace taken from a pool (newSearch) and handed back
// (release): its buffers outlive it, so a warm search allocates nothing of
// its own. Everything a search derives lives in one of them — the scans,
// each table's structures, the join edges' FROM positions and every edge
// list connectingEdges orients, the wanted orders' join keys, each relation
// set's paths and the candidates of the set at hand.
type search struct {
	tail
	env          *Env
	tables       []string    // lower-case resolved names, FROM order
	scans        []tableScan // per table, FROM order
	joins        []sqlparse.JoinEdge
	joinPos      [][2]int        // per join edge: its left and right table's FROM position, -1 for none
	residual     []sqlparse.Expr // cross-table and constant predicates
	resSel       float64
	wantedOrders [][]OrderKey
	joinKeys     []OrderKey          // the wanted orders' join keys, one a run
	indexes      []*catalog.Index    // each table's structures, one run a table
	edges        []sqlparse.JoinEdge // every edge list connectingEdges returned
	memo         [][]path            // the pruned paths of each relation set
	cands        []path              // the candidates of the relation set at hand

	// The winner: the cheapest finished path of the full set, or an
	// aggregate view answering the whole query.
	best  *path
	mv    *catalog.Index
	total float64
}

// maxPathsPerSet bounds the pruned path list kept per relation set.
const maxPathsPerSet = 5

// searches holds the idle workspaces.
var searches = sync.Pool{New: func() any { return new(search) }}

// newSearch takes a workspace from the pool.
func newSearch() *search { return searches.Get().(*search) }

// release hands the workspace back to the pool, reset.
func (s *search) release() {
	s.reset()
	searches.Put(s)
}

// reset empties the workspace and keeps its buffers. It first clears every
// pointer they hold, beyond their lengths too, so an idle workspace pins no
// configuration's structures and no statement.
func (s *search) reset() {
	for _, m := range s.memo {
		clear(m[:cap(m)])
	}
	clear(s.scans[:cap(s.scans)])
	clear(s.wantedOrders[:cap(s.wantedOrders)])
	clear(s.joinKeys[:cap(s.joinKeys)])
	clear(s.indexes[:cap(s.indexes)])
	clear(s.edges[:cap(s.edges)])
	clear(s.cands[:cap(s.cands)])
	*s = search{
		scans:        s.scans[:0],
		joinPos:      s.joinPos[:0],
		wantedOrders: s.wantedOrders[:0],
		joinKeys:     s.joinKeys[:0],
		indexes:      s.indexes[:0],
		edges:        s.edges[:0],
		memo:         s.memo[:0],
		cands:        s.cands[:0],
	}
}

// bestJoin runs the DP and returns the pruned path list for the full set.
func (s *search) bestJoin() []path {
	n := len(s.tables)
	full := (1 << n) - 1
	if cap(s.memo) <= full {
		// Keep the sets' slices grown so far: they are the buffers.
		s.memo = slices.Grow(s.memo[:cap(s.memo)], full+1-cap(s.memo))
	}
	s.memo = s.memo[:full+1]
	// keep stores a relation set's pruned candidates in the set's own slice,
	// which nothing else writes during the search, so the paths above it may
	// point into it.
	keep := func(mask int) {
		s.memo[mask] = append(s.memo[mask][:0], prunePaths(s.cands, s.wantedOrders)...)
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
// oriented so the left endpoint is in maskL. The list is a run of the
// search's edge buffer, valid until the search is released.
func (s *search) connectingEdges(maskL, maskR int) []sqlparse.JoinEdge {
	start := len(s.edges)
	for k, e := range s.joins {
		lb, rb := s.joinPos[k][0], s.joinPos[k][1]
		if lb < 0 || rb < 0 {
			continue
		}
		switch {
		case maskL&(1<<lb) != 0 && maskR&(1<<rb) != 0:
			s.edges = append(s.edges, e)
		case maskL&(1<<rb) != 0 && maskR&(1<<lb) != 0:
			s.edges = append(s.edges, sqlparse.JoinEdge{
				LeftTable: e.RightTable, LeftColumn: e.RightColumn,
				RightTable: e.LeftTable, RightColumn: e.LeftColumn,
				Pred: e.Pred,
			})
		}
	}
	return s.edges[start:len(s.edges):len(s.edges)]
}

// joinKey is the ascending order on one endpoint of a join edge.
func joinKey(table, column string) OrderKey {
	return OrderKey{Table: strings.ToLower(table), Column: strings.ToLower(column)}
}

// mergeKeys are the orders a merge join on edge e needs of its outer and
// inner inputs, as values: the search compares them and keeps neither.
func mergeKeys(e sqlparse.JoinEdge) (outer, inner [1]OrderKey) {
	return [1]OrderKey{joinKey(e.LeftTable, e.LeftColumn)}, [1]OrderKey{joinKey(e.RightTable, e.RightColumn)}
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
		o := s.withOrder(outers, wantO[:])
		i := s.withOrder(inners, wantI[:])
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
		JoinEdges:   append([]sqlparse.JoinEdge(nil), p.edges...), // the plan outlives the edge buffer
		EstRows:     p.rows,
		StartupCost: p.startup,
		TotalCost:   p.total,
		Order:       o.Order,
	}
	var i *Node
	switch {
	case p.kind == NodeMergeJoin:
		keyO, keyI := mergeKeys(p.edges[0])
		wantO, wantI := keyO[:], keyI[:]
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
	return s.env.innerIndexPath(sc.table, sc.indexes, e.RightColumn, sc.filters, sc.needed, sc.star, loops)
}
