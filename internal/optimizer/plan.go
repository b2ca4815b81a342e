package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// NodeKind enumerates physical plan operators.
type NodeKind int

// The physical operators the optimizer can emit.
const (
	NodeSeqScan NodeKind = iota
	NodeIndexScan
	NodeIndexOnlyScan
	NodeNestLoop
	NodeHashJoin
	NodeMergeJoin
	NodeSort
	NodeHashAgg
	NodeLimit
	NodeProject
	// NodeMVScan scans a materialized aggregate view (catalog.KindAggView)
	// instead of the base table — the whole-query rewrite for matching
	// GROUP BY/aggregate queries. Appended after the legacy kinds so every
	// pre-existing NodeKind value is unchanged.
	NodeMVScan
)

// String returns the EXPLAIN name of the operator.
func (k NodeKind) String() string {
	switch k {
	case NodeSeqScan:
		return "Seq Scan"
	case NodeIndexScan:
		return "Index Scan"
	case NodeIndexOnlyScan:
		return "Index Only Scan"
	case NodeNestLoop:
		return "Nested Loop"
	case NodeHashJoin:
		return "Hash Join"
	case NodeMergeJoin:
		return "Merge Join"
	case NodeSort:
		return "Sort"
	case NodeHashAgg:
		return "HashAggregate"
	case NodeLimit:
		return "Limit"
	case NodeProject:
		return "Project"
	case NodeMVScan:
		return "MV Scan"
	default:
		return fmt.Sprintf("Node(%d)", int(k))
	}
}

// OrderKey is one component of a delivered or required sort order.
type OrderKey struct {
	Table  string
	Column string
	Desc   bool
}

// String renders table.column [DESC].
func (o OrderKey) String() string {
	s := o.Table + "." + o.Column
	if o.Desc {
		s += " DESC"
	}
	return s
}

// Node is a physical plan operator. A single concrete struct (rather than
// one type per operator) keeps the executor, INUM's plan surgery, and
// EXPLAIN rendering simple; only the fields relevant to Kind are set.
type Node struct {
	Kind NodeKind

	// Scans.
	Table string         // base table name (resolved)
	Index *catalog.Index // index scans
	// Leading-prefix equality bounds followed by an optional range bound on
	// the next index column.
	EqVals   []catalog.Datum
	HasRange bool
	LoVal    catalog.Datum
	HiVal    catalog.Datum
	LoIncl   bool
	HiIncl   bool
	// InVals, when non-empty, makes the scan a multi-probe: index column
	// len(EqVals) is probed once per value (an IN-list access path).
	InVals []catalog.Datum
	// Backward reverses the index scan direction, delivering descending
	// order (serves ORDER BY ... DESC without a sort).
	Backward bool
	// Parameterized inner scan of a nested-loop join: the equality value
	// for index column len(EqVals) comes from the outer row's column.
	ParamOuterTable  string
	ParamOuterColumn string

	// Filter is the residual predicate evaluated at this node.
	Filter []sqlparse.Expr

	// Joins.
	JoinEdges []sqlparse.JoinEdge // equi-join conditions applied here

	// Sort.
	SortKeys []OrderKey

	// Aggregation.
	GroupBy []*sqlparse.ColumnRef
	Aggs    []AggSpec

	// Limit.
	Limit int64

	// Projection (root): output expressions in order.
	Projections []sqlparse.SelectItem

	Children []*Node

	// Estimates.
	EstRows     float64
	StartupCost float64
	TotalCost   float64

	// Order is the sort order this node delivers (nil if none).
	Order []OrderKey
}

// AggSpec is one aggregate computed by a HashAggregate node.
type AggSpec struct {
	Func sqlparse.AggFunc
	Arg  *sqlparse.ColumnRef // nil for COUNT(*)
	Star bool
}

// String renders the aggregate.
func (a AggSpec) String() string {
	if a.Star {
		return string(a.Func) + "(*)"
	}
	return string(a.Func) + "(" + a.Arg.String() + ")"
}

// Plan is the optimizer's result for one statement.
type Plan struct {
	Root *Node
	// Tables lists the base tables in the FROM clause (resolved names).
	Tables []string
}

// TotalCost returns the root total cost.
func (p *Plan) TotalCost() float64 { return p.Root.TotalCost }

// EstRows returns the root cardinality estimate.
func (p *Plan) EstRows() float64 { return p.Root.EstRows }

// Explain renders the plan tree in EXPLAIN-like indented form.
func (p *Plan) Explain() string {
	var b strings.Builder
	explainNode(&b, p.Root, 0)
	return b.String()
}

func explainNode(b *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	if depth > 0 {
		indent += "-> "
	}
	fmt.Fprintf(b, "%s%s", indent, n.Kind)
	switch n.Kind {
	case NodeSeqScan:
		fmt.Fprintf(b, " on %s", n.Table)
	case NodeIndexScan, NodeIndexOnlyScan:
		dir := ""
		if n.Backward {
			dir = " backward"
		}
		fmt.Fprintf(b, " using %s on %s%s", n.Index.Name, n.Table, dir)
	case NodeMVScan:
		fmt.Fprintf(b, " on %s (mv of %s)", n.Index.Key(), n.Table)
	case NodeSort:
		keys := make([]string, len(n.SortKeys))
		for i, k := range n.SortKeys {
			keys[i] = k.String()
		}
		fmt.Fprintf(b, " by %s", strings.Join(keys, ", "))
	case NodeHashAgg:
		if len(n.GroupBy) > 0 {
			keys := make([]string, len(n.GroupBy))
			for i, g := range n.GroupBy {
				keys[i] = g.String()
			}
			fmt.Fprintf(b, " group by %s", strings.Join(keys, ", "))
		}
	case NodeLimit:
		fmt.Fprintf(b, " %d", n.Limit)
	case NodeNestLoop, NodeHashJoin, NodeMergeJoin:
		if len(n.JoinEdges) > 0 {
			conds := make([]string, len(n.JoinEdges))
			for i, e := range n.JoinEdges {
				conds[i] = e.String()
			}
			fmt.Fprintf(b, " on %s", strings.Join(conds, " AND "))
		}
	}
	fmt.Fprintf(b, "  (cost=%.2f..%.2f rows=%.0f)", n.StartupCost, n.TotalCost, n.EstRows)
	if len(n.Filter) > 0 {
		conds := make([]string, len(n.Filter))
		for i, f := range n.Filter {
			conds[i] = f.String()
		}
		fmt.Fprintf(b, " filter: %s", strings.Join(conds, " AND "))
	}
	if n.Kind == NodeIndexScan || n.Kind == NodeIndexOnlyScan {
		if cond := n.indexCondString(); cond != "" {
			fmt.Fprintf(b, " cond: %s", cond)
		}
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		explainNode(b, c, depth+1)
	}
}

// indexCondString summarizes the bounds applied to the index.
func (n *Node) indexCondString() string {
	if n.Index == nil {
		return ""
	}
	var parts []string
	for i, v := range n.EqVals {
		parts = append(parts, fmt.Sprintf("%s = %s", n.Index.Columns[i], v))
	}
	if n.ParamOuterColumn != "" {
		parts = append(parts, fmt.Sprintf("%s = %s.%s",
			n.Index.Columns[len(n.EqVals)], n.ParamOuterTable, n.ParamOuterColumn))
	}
	if len(n.InVals) > 0 {
		vals := make([]string, len(n.InVals))
		for i, v := range n.InVals {
			vals[i] = v.String()
		}
		parts = append(parts, fmt.Sprintf("%s IN (%s)",
			n.Index.Columns[len(n.EqVals)], strings.Join(vals, ", ")))
	}
	if n.HasRange {
		rangePos := len(n.EqVals)
		if len(n.InVals) > 0 {
			rangePos++ // the IN column sits between the prefix and the range
		}
		col := n.Index.Columns[rangePos]
		if !n.LoVal.IsNull() {
			op := ">"
			if n.LoIncl {
				op = ">="
			}
			parts = append(parts, fmt.Sprintf("%s %s %s", col, op, n.LoVal))
		}
		if !n.HiVal.IsNull() {
			op := "<"
			if n.HiIncl {
				op = "<="
			}
			parts = append(parts, fmt.Sprintf("%s %s %s", col, op, n.HiVal))
		}
	}
	return strings.Join(parts, " AND ")
}

// orderSatisfies reports whether the delivered order `have` satisfies the
// required prefix `want`.
func orderSatisfies(have, want []OrderKey) bool {
	if len(want) > len(have) {
		return false
	}
	for i, w := range want {
		h := have[i]
		if !strings.EqualFold(h.Table, w.Table) || !strings.EqualFold(h.Column, w.Column) || h.Desc != w.Desc {
			return false
		}
	}
	return true
}

// Walk visits the node and all descendants depth-first.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}
