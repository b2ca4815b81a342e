package optimizer

import (
	"math"
	"math/bits"
	"strings"

	"repro/internal/sqlparse"
)

// joinState carries the shared inputs of the dynamic-programming join
// search for one statement.
type joinState struct {
	env          *Env
	tables       []string // lower-case resolved names, FROM order
	tableBit     map[string]int
	filters      map[string][]sqlparse.Expr
	joins        []sqlparse.JoinEdge
	needed       map[string]map[string]bool
	star         bool
	wantedOrders [][]OrderKey
	memo         map[int][]*Node
}

// maxPathsPerSet bounds the pruned path list kept per relation set.
const maxPathsPerSet = 5

// bestJoin runs the DP and returns the pruned path list for the full set.
func (s *joinState) bestJoin() []*Node {
	n := len(s.tables)
	full := (1 << n) - 1

	// Base: single-table access paths.
	for i, t := range s.tables {
		paths := s.env.scanPaths(t, DesignOn(s.env.Config, t), s.filters[t], s.needed[t], s.star, s.wantedOrders)
		s.memo[1<<i] = prunePaths(paths, s.wantedOrders)
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
			var candidates []*Node
			connectedOnly := true
			for pass := 0; pass < 2 && len(candidates) == 0; pass++ {
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
					candidates = append(candidates, s.joinPair(sub, other, edges)...)
					candidates = append(candidates, s.joinPair(other, sub, reverseEdges(edges))...)
				}
			}
			s.memo[mask] = prunePaths(candidates, s.wantedOrders)
		}
	}
	return s.memo[full]
}

// connectingEdges returns join edges with one endpoint in each side,
// oriented so the left endpoint is in maskL.
func (s *joinState) connectingEdges(maskL, maskR int) []sqlparse.JoinEdge {
	var out []sqlparse.JoinEdge
	for _, e := range s.joins {
		lb, lok := s.tableBit[strings.ToLower(e.LeftTable)]
		rb, rok := s.tableBit[strings.ToLower(e.RightTable)]
		if !lok || !rok {
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

func reverseEdges(edges []sqlparse.JoinEdge) []sqlparse.JoinEdge {
	out := make([]sqlparse.JoinEdge, len(edges))
	for i, e := range edges {
		out[i] = sqlparse.JoinEdge{
			LeftTable: e.RightTable, LeftColumn: e.RightColumn,
			RightTable: e.LeftTable, RightColumn: e.LeftColumn,
			Pred: e.Pred,
		}
	}
	return out
}

// joinPair builds candidate join nodes with maskOuter as the outer side.
// Edges are oriented outer(left) -> inner(right).
func (s *joinState) joinPair(maskOuter, maskInner int, edges []sqlparse.JoinEdge) []*Node {
	outers := s.memo[maskOuter]
	inners := s.memo[maskInner]
	if len(outers) == 0 || len(inners) == 0 {
		return nil
	}
	env := s.env

	// Join cardinality: product of inputs times edge selectivities.
	rowsOuter := outers[0].EstRows
	rowsInner := inners[0].EstRows
	sel := 1.0
	for _, e := range edges {
		sel *= env.joinSelectivity(e)
	}
	outRows := math.Max(rowsOuter*rowsInner*sel, 1)

	var out []*Node

	// --- Hash join: cheapest inputs, outer order preserved. ---------------
	if !env.Opts.DisableHashJoin && len(edges) > 0 {
		o, i := cheapest(outers), cheapest(inners)
		hj := &Node{
			Kind:      NodeHashJoin,
			JoinEdges: edges,
			Children:  []*Node{o, i},
			EstRows:   outRows,
			Order:     o.Order,
		}
		hj.StartupCost = o.StartupCost + i.TotalCost
		hj.TotalCost = o.TotalCost + i.TotalCost +
			env.Params.hashJoinCost(o.EstRows, i.EstRows, len(edges)) +
			outRows*env.Params.CPUTupleCost
		out = append(out, hj)
	}

	// --- Merge join on the first edge. ------------------------------------
	if !env.Opts.DisableMergeJoin && len(edges) > 0 {
		e0 := edges[0]
		wantO := []OrderKey{{Table: strings.ToLower(e0.LeftTable), Column: strings.ToLower(e0.LeftColumn)}}
		wantI := []OrderKey{{Table: strings.ToLower(e0.RightTable), Column: strings.ToLower(e0.RightColumn)}}
		o := s.withOrder(outers, wantO)
		i := s.withOrder(inners, wantI)
		if o != nil && i != nil {
			mj := &Node{
				Kind:      NodeMergeJoin,
				JoinEdges: edges,
				Children:  []*Node{o, i},
				EstRows:   outRows,
				Order:     wantO,
			}
			mj.StartupCost = o.TotalCost + i.TotalCost
			mj.TotalCost = o.TotalCost + i.TotalCost +
				env.Params.mergeJoinCost(o.EstRows, i.EstRows, len(edges)) +
				outRows*env.Params.CPUTupleCost
			out = append(out, mj)
		}
	}

	// --- Nested loop. -------------------------------------------------------
	if !env.Opts.DisableNestLoop {
		// Parameterized index scan of a single inner table on a join column.
		if bits.OnesCount(uint(maskInner)) == 1 {
			innerTable := s.tables[bits.TrailingZeros(uint(maskInner))]
			for _, e := range edges {
				if !strings.EqualFold(e.RightTable, innerTable) {
					continue
				}
				o := cheapest(outers)
				probe := env.innerIndexPath(
					innerTable, e.RightColumn,
					strings.ToLower(e.LeftTable), strings.ToLower(e.LeftColumn),
					s.filters[innerTable], s.needed[innerTable], s.star,
					math.Max(o.EstRows, 1),
				)
				if probe == nil {
					continue
				}
				nl := &Node{
					Kind:      NodeNestLoop,
					JoinEdges: edges,
					Children:  []*Node{o, probe},
					EstRows:   outRows,
					Order:     o.Order,
				}
				nl.StartupCost = o.StartupCost
				nl.TotalCost = o.TotalCost +
					math.Max(o.EstRows, 1)*probe.TotalCost +
					outRows*env.Params.CPUTupleCost
				out = append(out, nl)
			}
		}
		// Plain nested loop (inner re-scanned); usually dominated but it is
		// the only method for joins without equality edges.
		o, i := cheapest(outers), cheapest(inners)
		nl := &Node{
			Kind:      NodeNestLoop,
			JoinEdges: edges,
			Children:  []*Node{o, i},
			EstRows:   outRows,
			Order:     o.Order,
		}
		rescans := math.Max(o.EstRows, 1)
		nl.StartupCost = o.StartupCost + i.StartupCost
		nl.TotalCost = o.TotalCost + rescans*i.TotalCost +
			rowsOuter*rowsInner*env.Params.CPUOperatorCost*float64(1+len(edges)) +
			outRows*env.Params.CPUTupleCost
		out = append(out, nl)
	}
	return out
}

// withOrder returns the cheapest way to obtain the wanted order from the
// path list: a path that already delivers it, or the cheapest path plus an
// explicit sort.
func (s *joinState) withOrder(paths []*Node, want []OrderKey) *Node {
	var best *Node
	for _, p := range paths {
		if orderSatisfies(p.Order, want) && (best == nil || p.TotalCost < best.TotalCost) {
			best = p
		}
	}
	cheap := cheapest(paths)
	if cheap == nil {
		return best
	}
	startup, total := s.env.Params.sortCost(cheap.EstRows)
	sorted := &Node{
		Kind:        NodeSort,
		SortKeys:    want,
		Children:    []*Node{cheap},
		EstRows:     cheap.EstRows,
		StartupCost: cheap.TotalCost + startup,
		TotalCost:   cheap.TotalCost + total,
		Order:       want,
	}
	if best == nil || sorted.TotalCost < best.TotalCost {
		return sorted
	}
	return best
}

// cheapest returns the path with the lowest total cost.
func cheapest(paths []*Node) *Node {
	var best *Node
	for _, p := range paths {
		if best == nil || p.TotalCost < best.TotalCost {
			best = p
		}
	}
	return best
}

// prunePaths keeps the overall cheapest path plus the cheapest path per
// wanted order it satisfies, bounded by maxPathsPerSet.
func prunePaths(paths []*Node, wantedOrders [][]OrderKey) []*Node {
	if len(paths) == 0 {
		return nil
	}
	keep := make(map[*Node]bool)
	keep[cheapest(paths)] = true
	for _, w := range wantedOrders {
		if len(w) == 0 {
			continue
		}
		var best *Node
		for _, p := range paths {
			if orderSatisfies(p.Order, w) && (best == nil || p.TotalCost < best.TotalCost) {
				best = p
			}
		}
		if best != nil {
			keep[best] = true
		}
		if len(keep) >= maxPathsPerSet {
			break
		}
	}
	out := make([]*Node, 0, len(keep))
	for _, p := range paths { // preserve deterministic insertion order
		if keep[p] {
			out = append(out, p)
			delete(keep, p)
		}
	}
	return out
}
