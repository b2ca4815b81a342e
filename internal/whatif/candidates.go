package whatif

import (
	"cmp"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// CandidateOptions tune candidate enumeration. Composite keys are capped at
// maxWidth columns and covering candidates are always enumerated.
type CandidateOptions struct {
	// MaxPerTable caps candidates per table and kind group (by workload
	// frequency).
	MaxPerTable int
	// IncludeProjections admits covering-projection candidates (key prefix
	// + INCLUDE payload) into the design space. Off by default: plain-index
	// advice stays bit-identical unless the caller widens the space.
	IncludeProjections bool
	// IncludeAggViews admits single-table aggregate materialized-view
	// candidates. Off by default, same determinism contract.
	IncludeAggViews bool
}

// maxWidth caps a composite index's key prefix; a covering candidate may
// carry two more columns.
const maxWidth = 3

// DefaultCandidateOptions returns the advisor defaults.
func DefaultCandidateOptions() CandidateOptions {
	return CandidateOptions{MaxPerTable: 12}
}

// candidate is one scored structure the workload implies: a secondary index
// on keys, a covering projection (extra: its INCLUDE columns) or an
// aggregate view (keys: its group keys, extra: its aggregates). score sums
// the weights of the queries that imply it; key is its catalog key.
type candidate struct {
	kind  catalog.StructureKind
	table string
	keys  []string
	extra []string
	score float64
	key   string
}

// candidates accumulates the enumeration by catalog key.
type candidates map[string]*candidate

// merge adds score to the candidate's twin, or inserts the candidate.
func (acc candidates) merge(kind catalog.StructureKind, table string, keys, extra []string, score float64) {
	key := catalog.StructureKey(kind, table, keys, extra)
	if c, ok := acc[key]; ok {
		c.score += score
		return
	}
	acc[key] = &candidate{kind: kind, table: table, keys: keys, extra: extra, score: score, key: key}
}

// rank emits the accumulated candidates: secondary indexes first, then the
// other kinds, each group table by table, ordered by score and then key,
// capped at maxPerTable a table and sized through Hypothetical. A candidate
// Hypothetical refuses is dropped, and so is one whose key the session's
// base holds: that structure is already in every design, so a what-if twin
// of it would only take a slot.
func (s *Session) rank(acc candidates, maxPerTable int) []*catalog.Index {
	group := func(c *candidate) int { return min(int(c.kind), 1) } // secondary first
	list := make([]*candidate, 0, len(acc))
	for c := range maps.Values(acc) {
		if !s.base.HasIndex(c.key) {
			list = append(list, c)
		}
	}
	slices.SortFunc(list, func(a, b *candidate) int {
		return cmp.Or(cmp.Compare(group(a), group(b)),
			strings.Compare(a.table, b.table),
			cmp.Compare(b.score, a.score),
			strings.Compare(a.key, b.key))
	})
	var out []*catalog.Index
	n := 0
	for i, c := range list {
		if i > 0 && c.table == list[i-1].table && group(c) == group(list[i-1]) {
			n++
		} else {
			n = 0
		}
		if n >= maxPerTable {
			continue
		}
		if ix, err := s.Hypothetical(c.kind, c.table, c.keys, c.extra); err == nil {
			out = append(out, ix)
		}
	}
	return out
}

// GenerateCandidates enumerates the structures implied by the workload's
// predicate structure: single-column indexes on sargable and join columns,
// composite equality+range prefixes, ORDER BY / GROUP BY leading columns,
// and covering variants; with the options, also covering projections for
// single-table queries whose referenced columns exceed a useful key prefix,
// and aggregate views for GROUP BY/aggregate queries. Every candidate is
// sized via the what-if sizing model, and the emission order is
// deterministic so advice stays reproducible. This is the candidate set
// both CoPhy and the greedy baseline search over.
func (s *Session) GenerateCandidates(w *workload.Workload, opts CandidateOptions) []*catalog.Index {
	if opts.MaxPerTable <= 0 {
		opts.MaxPerTable = 12
	}
	acc := candidates{}
	add := func(weight float64, table string, cols ...string) {
		if len(cols) == 0 || len(cols) > maxWidth+2 {
			return
		}
		t := s.env.Schema.Table(table)
		if t == nil {
			return
		}
		seen := map[string]bool{}
		var clean []string
		for _, c := range cols {
			lc := strings.ToLower(c)
			if seen[lc] || !t.HasColumn(c) {
				continue
			}
			seen[lc] = true
			clean = append(clean, lc)
		}
		if len(clean) > 0 {
			acc.merge(catalog.KindSecondary, strings.ToLower(table), clean, nil, weight)
		}
	}

	for _, q := range w.Queries {
		a := q.Stmt.Analysis()
		perTableEq := map[string][]string{}
		perTableRange := map[string][]string{}
		for i, table := range a.Tables {
			for _, c := range a.Filters[i] {
				sr, ok := sqlparse.SargableOf(c)
				if !ok {
					continue
				}
				add(q.Weight, table, sr.Column)
				if sr.IsEquality {
					perTableEq[table] = append(perTableEq[table], sr.Column)
				} else if sr.IsRange {
					perTableRange[table] = append(perTableRange[table], sr.Column)
				}
			}
		}
		// Composite: equality prefix + one range column.
		for table, eqs := range perTableEq {
			sort.Strings(eqs)
			if len(eqs) > 1 {
				add(q.Weight, table, eqs...)
			}
			for _, r := range perTableRange[table] {
				cols := append(append([]string(nil), eqs...), r)
				add(q.Weight, table, cols...)
			}
		}
		// Range-only composites are just the single columns (added above).
		// Join endpoints.
		for _, j := range a.Joins {
			add(q.Weight, j.LeftTable, j.LeftColumn)
			add(q.Weight, j.RightTable, j.RightColumn)
			// Join column + local equality prefix.
			if eqs := perTableEq[strings.ToLower(j.LeftTable)]; len(eqs) > 0 {
				add(q.Weight, j.LeftTable, append([]string{j.LeftColumn}, eqs...)...)
			}
			if eqs := perTableEq[strings.ToLower(j.RightTable)]; len(eqs) > 0 {
				add(q.Weight, j.RightTable, append([]string{j.RightColumn}, eqs...)...)
			}
		}
		// ORDER BY leading column.
		if len(q.Stmt.OrderBy) > 0 {
			if col, ok := q.Stmt.OrderBy[0].Expr.(*sqlparse.ColumnRef); ok {
				add(q.Weight, col.Table, col.Column)
				// Equality prefix + order column serves both.
				if eqs := perTableEq[strings.ToLower(col.Table)]; len(eqs) > 0 {
					add(q.Weight, col.Table, append(append([]string{}, eqs...), col.Column)...)
				}
			}
		}
		// GROUP BY columns.
		for _, g := range q.Stmt.GroupBy {
			if col, ok := g.(*sqlparse.ColumnRef); ok {
				add(q.Weight*0.5, col.Table, col.Column)
			}
		}
		// Single-table queries: a covering candidate for narrow column sets
		// (sargable columns first for a useful prefix), and the structures
		// the options admit.
		if len(a.Tables) != 1 || s.env.Schema.Table(a.Tables[0]) == nil {
			continue
		}
		table := a.Tables[0]
		if cols := slices.Collect(maps.Keys(a.Columns[0])); len(cols) > 0 && len(cols) <= maxWidth+2 {
			add(q.Weight*0.75, table, orderCoveringColumns(cols, perTableEq[table], perTableRange[table])...)
		}
		if opts.IncludeProjections {
			if keys, include := projectionCandidate(a); keys != nil {
				acc.merge(catalog.KindProjection, table, keys, include, q.Weight*0.75)
			}
		}
		if opts.IncludeAggViews {
			if keys, aggs := aggViewCandidate(q.Stmt); keys != nil {
				acc.merge(catalog.KindAggView, table, keys, aggs, q.Weight)
			}
		}
	}
	return s.rank(acc, opts.MaxPerTable)
}

// projectionCandidate derives a covering projection for a single-table
// query: sargable columns form the key prefix (equality first, capped at
// maxWidth), every other referenced column rides as INCLUDE payload. Nil
// keys when the query leaves nothing to include — a plain covering index
// already handles it.
func projectionCandidate(a *sqlparse.Analysis) (keys, include []string) {
	cols := slices.Collect(maps.Keys(a.Columns[0]))
	if len(cols) < 2 || a.Star {
		return nil, nil // SELECT * can never be index-only
	}
	var eqs, ranges []string
	eqSet, rangeSet := map[string]bool{}, map[string]bool{}
	for _, c := range a.Filters[0] {
		sr, ok := sqlparse.SargableOf(c)
		if !ok {
			continue
		}
		lc := strings.ToLower(sr.Column)
		if sr.IsEquality && !eqSet[lc] {
			eqSet[lc] = true
			eqs = append(eqs, lc)
		} else if sr.IsRange && !rangeSet[lc] {
			rangeSet[lc] = true
			ranges = append(ranges, lc)
		}
	}
	ordered := orderCoveringColumns(cols, eqs, ranges)
	nKey := 0
	for _, c := range ordered {
		if eqSet[c] || rangeSet[c] {
			nKey++
		} else {
			break
		}
	}
	if nKey == 0 {
		nKey = 1
	}
	nKey = min(nKey, maxWidth)
	if nKey >= len(ordered) {
		return nil, nil
	}
	return ordered[:nKey], ordered[nKey:]
}

// aggViewCandidate derives an aggregate view for a GROUP BY/aggregate
// query: view keys are the group keys plus every WHERE column (so filters
// remain evaluable over the view), aggregates are the query's own calls.
// Nil keys when no view serves the query.
func aggViewCandidate(sel *sqlparse.SelectStmt) (keys, aggs []string) {
	a := sel.Analysis()
	if !a.Aggregate || sel.Distinct || !a.PlainGroups {
		return nil, nil
	}
	gkeys := a.GroupKeys
	aggs = dedupStrings(a.Aggregates)
	if len(aggs) == 0 {
		return nil, nil // GROUP BY without aggregates: a plain index serves
	}
	keySet := map[string]bool{}
	keys = append([]string(nil), gkeys...)
	for _, k := range gkeys {
		keySet[k] = true
	}
	var extra []string
	sqlparse.WalkColumns(sel.Where, func(c *sqlparse.ColumnRef) {
		lc := strings.ToLower(c.Column)
		if !keySet[lc] {
			keySet[lc] = true
			extra = append(extra, lc)
		}
	})
	sort.Strings(extra)
	keys = append(keys, extra...)
	if len(keys) == 0 {
		return nil, nil
	}
	return keys, aggs
}

func dedupStrings(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// orderCoveringColumns puts equality columns first, then range columns,
// then the rest — the useful key prefix order for a covering index.
func orderCoveringColumns(cols, eqs, ranges []string) []string {
	rank := map[string]int{}
	for _, c := range cols {
		rank[strings.ToLower(c)] = 2
	}
	for _, c := range ranges {
		rank[strings.ToLower(c)] = 1
	}
	for _, c := range eqs {
		rank[strings.ToLower(c)] = 0
	}
	out := append([]string(nil), cols...)
	sort.SliceStable(out, func(a, b int) bool {
		ra, rb := rank[strings.ToLower(out[a])], rank[strings.ToLower(out[b])]
		if ra != rb {
			return ra < rb
		}
		return out[a] < out[b]
	})
	return out
}
