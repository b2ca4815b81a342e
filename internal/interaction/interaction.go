// Package interaction implements the index-interaction analysis of
// Schnaitter et al. (PVLDB 2009) that the designer embeds (§3.5): the
// degree of interaction between two indexes, the interaction graph the demo
// visualizes (Figure 2), and stable-subset partitioning.
//
// Two indexes a and b interact when the benefit of having both differs from
// the sum of their individual benefits — e.g. two indexes that serve the
// same predicate are substitutes (negative synergy), while an index pair
// enabling a cheap merge join on both sides is complementary. Following the
// paper, the degree of interaction within a context configuration X (with
// a, b ∉ X) is
//
//	doi_X(a,b) = |C(X∪{a}) + C(X∪{b}) − C(X) − C(X∪{a,b})| / C(X∪{a,b})
//
// where C is the (INUM-estimated) workload cost, and doi(a,b) is the
// maximum over sampled contexts X ⊆ S∖{a,b}. Sampling keeps the analysis
// interactive: the full lattice is exponential, and the what-if costings
// are INUM-cached so each context costs microseconds (E2).
package interaction

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// Options tune the interaction analysis.
type Options struct {
	// SampleContexts is the number of random contexts X sampled per pair in
	// addition to the empty and full contexts.
	SampleContexts int
	// Seed drives context sampling (deterministic analysis).
	Seed int64
}

// DefaultOptions returns the analyzer defaults.
func DefaultOptions() Options { return Options{SampleContexts: 4, Seed: 1} }

// Edge is one interaction-graph edge: index ordinals and the degree.
type Edge struct {
	A, B int
	Doi  float64
}

// Graph is the interaction graph over a set of indexes.
type Graph struct {
	Indexes []*catalog.Index
	Edges   []Edge // all pairs with Doi > 0, sorted by Doi descending
	// PrunedPairs counts index pairs skipped by the relevance filter: no
	// workload query references both indexes' tables, so their degree of
	// interaction is provably zero and the lattice walk is never priced.
	PrunedPairs int
}

// AnalyzeView computes pairwise interaction degrees for the index set
// against the workload on one pinned engine generation. All costs flow
// through the view's pricing tables, and every pair's lattice walk — the
// four corner sets of every sampled context — is priced in one parallel
// sweep, which is what makes the quadratic pair analysis interactive.
func AnalyzeView(ctx context.Context, v *engine.View, w *workload.Workload, indexes []*catalog.Index, opts Options) (*Graph, error) {
	if opts.SampleContexts < 0 {
		opts.SampleContexts = 0
	}
	g := &Graph{Indexes: indexes}
	n := len(indexes)
	if n < 2 {
		return g, nil
	}
	// Collect every query's table relevance set. Two indexes can only
	// interact through a query that references both of their tables: for
	// any query missing either table, the four lattice-corner costs cancel
	// exactly, so pairs with no co-referencing query have doi = 0 by
	// construction and are skipped without pricing.
	coRef := make(map[string]map[string]bool)
	for _, q := range w.Queries {
		tables := q.Stmt.Analysis().Tables
		for _, t1 := range tables {
			if coRef[t1] == nil {
				coRef[t1] = make(map[string]bool)
			}
			for _, t2 := range tables {
				coRef[t1][t2] = true
			}
		}
	}

	// An aggregate view only enters plans as a whole-query rewrite; one
	// that can rewrite no workload query is invisible to every costing, so
	// any pair containing it has doi = 0 by construction. This is the
	// MV extension of the co-reference pruning rule: it is exactly how
	// MV-vs-index cannibalism gets explained — a usable MV and an index
	// serving the same aggregate query are substitutes, and their negative
	// synergy surfaces as a normal graph edge.
	usable := make([]bool, n)
	for i, ix := range indexes {
		usable[i] = ix.Kind != catalog.KindAggView || aggViewUsable(w, ix)
	}

	// Every surviving pair's lattice corners — X, X∪{a}, X∪{b}, X∪{a,b} per
	// context — are collected first as sets of index ordinals and priced in
	// one engine sweep: one pool start-up per analysis, not per pair.
	type pairWalk struct {
		a, b     int
		first    int // offset of the pair's first corner in sets
		contexts int
	}
	var pairs []pairWalk
	var sets [][]int
	// A configuration holds one structure per key (WithIndex's rule). Keys
	// are rendered once per analysis, and corners are assembled as ordinal
	// lists compared on them.
	keys := make([]string, n)
	for i, ix := range indexes {
		keys[i] = ix.Key()
	}
	has := func(members []int, k int) bool {
		return slices.ContainsFunc(members, func(m int) bool { return keys[m] == keys[k] })
	}
	with := func(members []int, k int) []int {
		if has(members, k) {
			return members
		}
		return append(members[:len(members):len(members)], k)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			// Contexts are drawn before the relevance check so the rng
			// stream — and therefore every computed doi — is identical to
			// the unpruned analysis.
			contexts := sampleContexts(rng, n, a, b, opts.SampleContexts)
			ta := strings.ToLower(indexes[a].Table)
			tb := strings.ToLower(indexes[b].Table)
			if !coRef[ta][tb] || !usable[a] || !usable[b] {
				g.PrunedPairs++
				continue
			}
			pairs = append(pairs, pairWalk{a: a, b: b, first: len(sets), contexts: len(contexts)})
			for _, cx := range contexts {
				x := make([]int, 0, len(cx))
				for _, k := range cx {
					if !has(x, k) {
						x = append(x, k)
					}
				}
				xa := with(x, a)
				sets = append(sets, x, xa, with(x, b), with(xa, b))
			}
		}
	}
	p, err := v.Pricing(ctx, w, indexes)
	if err != nil {
		return nil, err
	}
	costs, err := p.Sweep(ctx, sets)
	if err != nil {
		return nil, err
	}
	for _, p := range pairs {
		maxDoi := 0.0
		for ci := 0; ci < p.contexts; ci++ {
			at := p.first + 4*ci
			cX, cXa, cXb, cXab := costs[at], costs[at+1], costs[at+2], costs[at+3]
			if cXab <= 0 {
				continue
			}
			d := cXa + cXb - cX - cXab
			if d < 0 {
				d = -d
			}
			d /= cXab
			if d > maxDoi {
				maxDoi = d
			}
		}
		if maxDoi > 1e-9 {
			g.Edges = append(g.Edges, Edge{A: p.a, B: p.b, Doi: maxDoi})
		}
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].Doi != g.Edges[j].Doi {
			return g.Edges[i].Doi > g.Edges[j].Doi
		}
		if g.Edges[i].A != g.Edges[j].A {
			return g.Edges[i].A < g.Edges[j].A
		}
		return g.Edges[i].B < g.Edges[j].B
	})
	return g, nil
}

// aggViewUsable reports whether any workload query could be rewritten by
// the aggregate view: the optimizer's own relevance rule, on the view's
// table.
func aggViewUsable(w *workload.Workload, mv *catalog.Index) bool {
	lt := strings.ToLower(mv.Table)
	for _, q := range w.Queries {
		if slices.Contains(q.Stmt.Analysis().Tables, lt) && optimizer.CanUse(q.Stmt, lt, mv) {
			return true
		}
	}
	return false
}

// sampleContexts returns the contexts X to probe for pair (a, b): empty,
// everything-else, and k random subsets.
func sampleContexts(rng *rand.Rand, n, a, b, k int) [][]int {
	others := make([]int, 0, n-2)
	for i := 0; i < n; i++ {
		if i != a && i != b {
			others = append(others, i)
		}
	}
	contexts := [][]int{{}}
	if len(others) > 0 {
		contexts = append(contexts, append([]int(nil), others...))
	}
	for s := 0; s < k && len(others) > 0; s++ {
		var cx []int
		for _, i := range others {
			if rng.Intn(2) == 0 {
				cx = append(cx, i)
			}
		}
		contexts = append(contexts, cx)
	}
	return contexts
}

// TopK returns the k strongest edges (the Figure 2 display filter).
func (g *Graph) TopK(k int) []Edge {
	if k >= len(g.Edges) {
		return g.Edges
	}
	return g.Edges[:k]
}

// StableSubsets partitions the index set into groups with no interaction of
// degree >= eps across groups (connected components of the thresholded
// graph). Indexes in different subsets can be scheduled independently.
func (g *Graph) StableSubsets(eps float64) [][]int {
	n := len(g.Indexes)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range g.Edges {
		if e.Doi >= eps {
			parent[find(e.A)] = find(e.B)
		}
	}
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// DOT renders the graph in Graphviz format with edges weighted by doi —
// the portable form of the Figure 2 visualization.
func (g *Graph) DOT(topK int) string {
	var b strings.Builder
	b.WriteString("graph interactions {\n")
	for i, ix := range g.Indexes {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", i, ix.Key())
	}
	for _, e := range g.TopK(topK) {
		fmt.Fprintf(&b, "  n%d -- n%d [label=\"%.3f\", weight=%d];\n",
			e.A, e.B, e.Doi, int(e.Doi*1000))
	}
	b.WriteString("}\n")
	return b.String()
}

// Render returns a text adjacency listing of the top-k edges (the terminal
// stand-in for the demo's interactive graph).
func (g *Graph) Render(topK int) string {
	var b strings.Builder
	edges := g.TopK(topK)
	if len(edges) == 0 {
		b.WriteString("(no interactions)\n")
		return b.String()
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "%-40s ~ %-40s doi=%.4f\n",
			g.Indexes[e.A].Key(), g.Indexes[e.B].Key(), e.Doi)
	}
	return b.String()
}

// Matrix renders the full doi matrix as a table: indexes numbered down the
// side, pairwise degrees in the cells ("." = no interaction). This is the
// dense view of Figure 2 for terminals.
func (g *Graph) Matrix() string {
	n := len(g.Indexes)
	if n == 0 {
		return "(no indexes)\n"
	}
	doi := make([][]float64, n)
	for i := range doi {
		doi[i] = make([]float64, n)
	}
	for _, e := range g.Edges {
		doi[e.A][e.B] = e.Doi
		doi[e.B][e.A] = e.Doi
	}
	var b strings.Builder
	for i, ix := range g.Indexes {
		fmt.Fprintf(&b, "[%2d] %s\n", i, ix.Key())
	}
	b.WriteString("\n     ")
	for j := 0; j < n; j++ {
		fmt.Fprintf(&b, "%7s", fmt.Sprintf("[%d]", j))
	}
	b.WriteString("\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "[%2d] ", i)
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				fmt.Fprintf(&b, "%7s", "-")
			case doi[i][j] == 0:
				fmt.Fprintf(&b, "%7s", ".")
			default:
				fmt.Fprintf(&b, "%7.3f", doi[i][j])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
