package whatif

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// CandidateOptions tune candidate index enumeration.
type CandidateOptions struct {
	// MaxPerTable caps candidates per table (by workload frequency).
	MaxPerTable int
	// MaxWidth caps composite index width.
	MaxWidth int
	// IncludeCovering adds covering candidates (key + projected columns).
	IncludeCovering bool
	// IncludeProjections admits covering-projection candidates (key prefix
	// + INCLUDE payload) into the design space. Off by default: plain-index
	// advice stays bit-identical unless the caller widens the space.
	IncludeProjections bool
	// IncludeAggViews admits single-table aggregate materialized-view
	// candidates. Off by default, same determinism contract.
	IncludeAggViews bool
}

// DefaultCandidateOptions returns the advisor defaults.
func DefaultCandidateOptions() CandidateOptions {
	return CandidateOptions{MaxPerTable: 12, MaxWidth: 3, IncludeCovering: true}
}

// scoredCandidate tracks how often a candidate column pattern is implied by
// workload queries.
type scoredCandidate struct {
	table   string
	columns []string
	score   float64
}

// GenerateCandidates enumerates hypothetical indexes implied by the
// workload's predicate structure: single-column indexes on sargable and
// join columns, composite equality+range prefixes, ORDER BY / GROUP BY
// leading columns, and covering variants. Every candidate is sized via the
// what-if sizing model. This is the candidate set both CoPhy and the greedy
// baseline search over.
func (s *Session) GenerateCandidates(w *workload.Workload, opts CandidateOptions) []*catalog.Index {
	if opts.MaxPerTable <= 0 {
		opts.MaxPerTable = 12
	}
	if opts.MaxWidth <= 0 {
		opts.MaxWidth = 3
	}
	acc := make(map[string]*scoredCandidate)
	add := func(weight float64, table string, cols ...string) {
		if len(cols) == 0 || len(cols) > opts.MaxWidth+2 {
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
		if len(clean) == 0 {
			return
		}
		key := strings.ToLower(table) + "(" + strings.Join(clean, ",") + ")"
		if sc, ok := acc[key]; ok {
			sc.score += weight
			return
		}
		acc[key] = &scoredCandidate{table: strings.ToLower(table), columns: clean, score: weight}
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
		// Covering candidate: single-table queries with narrow column sets.
		if opts.IncludeCovering && len(a.Tables) == 1 {
			table := a.Tables[0]
			cols := slices.Collect(maps.Keys(a.Columns[0]))
			if len(cols) > 0 && len(cols) <= opts.MaxWidth+2 {
				// Sargable columns first for a useful prefix.
				ordered := orderCoveringColumns(cols, perTableEq[table], perTableRange[table])
				add(q.Weight*0.75, table, ordered...)
			}
		}
	}

	// Rank per table by score, cap, size, and emit deterministically.
	perTable := map[string][]*scoredCandidate{}
	for _, sc := range acc {
		perTable[sc.table] = append(perTable[sc.table], sc)
	}
	var out []*catalog.Index
	tables := make([]string, 0, len(perTable))
	for t := range perTable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		list := perTable[t]
		sort.Slice(list, func(a, b int) bool {
			if list[a].score != list[b].score {
				return list[a].score > list[b].score
			}
			return strings.Join(list[a].columns, ",") < strings.Join(list[b].columns, ",")
		})
		if len(list) > opts.MaxPerTable {
			list = list[:opts.MaxPerTable]
		}
		for _, sc := range list {
			ix, err := s.HypotheticalIndex(sc.table, sc.columns...)
			if err != nil {
				continue
			}
			out = append(out, ix)
		}
	}
	if opts.IncludeProjections || opts.IncludeAggViews {
		out = append(out, s.generateStructureCandidates(w, opts)...)
	}
	return out
}

// structCand is a scored covering-projection or aggregate-view candidate.
type structCand struct {
	kind    catalog.StructureKind
	table   string
	keys    []string
	include []string
	aggs    []string
	score   float64
}

// generateStructureCandidates enumerates the wider-design-space candidates:
// covering projections for single-table queries whose referenced column set
// exceeds a useful key prefix, and aggregate views for GROUP BY/aggregate
// queries (group keys plus filter columns as view keys). Emission order is
// deterministic (table, then canonical key) so advice stays reproducible.
func (s *Session) generateStructureCandidates(w *workload.Workload, opts CandidateOptions) []*catalog.Index {
	acc := make(map[string]*structCand)
	for _, q := range w.Queries {
		a := q.Stmt.Analysis()
		if len(a.Tables) != 1 || s.env.Schema.Table(a.Tables[0]) == nil {
			continue
		}
		table := a.Tables[0]

		if opts.IncludeProjections {
			if c := projectionCandidate(a, opts.MaxWidth); c != nil {
				c.score = q.Weight * 0.75
				mergeStructCand(acc, c)
			}
		}
		if opts.IncludeAggViews {
			if c := aggViewCandidate(q.Stmt, table); c != nil {
				c.score = q.Weight
				mergeStructCand(acc, c)
			}
		}
	}

	perTable := map[string][]*structCand{}
	for _, c := range acc {
		perTable[c.table] = append(perTable[c.table], c)
	}
	tables := make([]string, 0, len(perTable))
	for t := range perTable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	var out []*catalog.Index
	for _, t := range tables {
		list := perTable[t]
		sort.Slice(list, func(a, b int) bool {
			if list[a].score != list[b].score {
				return list[a].score > list[b].score
			}
			return structKey(list[a]) < structKey(list[b])
		})
		if opts.MaxPerTable > 0 && len(list) > opts.MaxPerTable {
			list = list[:opts.MaxPerTable]
		}
		for _, c := range list {
			var ix *catalog.Index
			var err error
			switch c.kind {
			case catalog.KindProjection:
				ix, err = s.HypotheticalProjection(c.table, c.keys, c.include)
			case catalog.KindAggView:
				ix, err = s.HypotheticalAggView(c.table, c.keys, c.aggs)
			}
			if err != nil || ix == nil {
				continue
			}
			out = append(out, ix)
		}
	}
	return out
}

// structKey builds the candidate's canonical identity for dedup/ordering.
func structKey(c *structCand) string {
	k := c.table + "(" + strings.Join(c.keys, ",") + ")"
	switch c.kind {
	case catalog.KindProjection:
		return k + " include(" + strings.Join(c.include, ",") + ")"
	case catalog.KindAggView:
		return k + " agg(" + strings.Join(c.aggs, ",") + ")"
	}
	return k
}

func mergeStructCand(acc map[string]*structCand, c *structCand) {
	key := structKey(c)
	if old, ok := acc[key]; ok {
		old.score += c.score
		return
	}
	acc[key] = c
}

// projectionCandidate derives a covering projection for a single-table
// query: sargable columns form the key prefix (equality first, capped at
// maxWidth), every other referenced column rides as INCLUDE payload. Nil
// when the query leaves nothing to include — a plain covering index already
// handles it.
func projectionCandidate(a *sqlparse.Analysis, maxWidth int) *structCand {
	cols := slices.Collect(maps.Keys(a.Columns[0]))
	if len(cols) < 2 || a.Star {
		return nil // SELECT * can never be index-only
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
	if maxWidth > 0 && nKey > maxWidth {
		nKey = maxWidth
	}
	if nKey >= len(ordered) {
		return nil
	}
	return &structCand{
		kind:    catalog.KindProjection,
		table:   a.Tables[0],
		keys:    ordered[:nKey],
		include: ordered[nKey:],
	}
}

// aggViewCandidate derives an aggregate view for a GROUP BY/aggregate
// query: view keys are the group keys plus every WHERE column (so filters
// remain evaluable over the view), aggregates are the query's own calls.
func aggViewCandidate(sel *sqlparse.SelectStmt, table string) *structCand {
	a := sel.Analysis()
	if !a.Aggregate || sel.Distinct || !a.PlainGroups {
		return nil
	}
	gkeys := a.GroupKeys
	aggs := dedupStrings(a.Aggregates)
	if len(aggs) == 0 {
		return nil // GROUP BY without aggregates: a plain index serves
	}
	keySet := map[string]bool{}
	keys := append([]string(nil), gkeys...)
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
		return nil
	}
	return &structCand{
		kind:  catalog.KindAggView,
		table: table,
		keys:  keys,
		aggs:  aggs,
	}
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
