package engine

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// EvalState is the reusable outcome of one benefit evaluation: the per-query
// costs computed for a (workload, configuration) pair against one pinned
// generation, together with the workload's queries and the configuration
// itself. A subsequent evaluation of the same workload under a
// configuration that differs by K indexes (or partition layouts) only
// recosts the queries whose plan choice could actually move; every other
// query's cost is provably unchanged and is copied. This is the
// delta-costing layer behind the interactive re-advise loop: identical
// numbers to a cold Evaluate, a fraction of the work.
//
// Relevance is the optimizer's own exact-conservative rule
// (optimizer.CanUse, next to the path generation it mirrors): a structure
// failing it is invisible to that query's optimization, so adding or
// dropping it cannot change the query's cost. A delta works out what
// differs between the two configurations once (designDiff), then asks of
// each query only whether a difference reaches it, reading the footprint
// its statement's analysis carries. The state keeps a copy of the workload
// it priced, trees included: a later workload is the same one when every
// query's ID, SQL and weight match, compared element by element, so a
// re-parsed workload is matched without analysing its statements. Holding
// the trees keeps them alive for the designer's tree sharing, so a
// session's next request of the same text finds them instead of a parse.
//
// A state holds the report it was evaluated to and is read-only once
// returned, as is that report: a delta shares its Base vector, which never
// moves within a generation, and shares its New vector too unless a query
// is recosted, when it clones New alone. The report carries costs only;
// the queries' IDs and SQL stay in the workload.
type EvalState struct {
	// snap pins the generation the costs were computed against; a state is
	// only reusable on a view holding the same snapshot.
	snap *snapshot
	// queries is the workload the costs were computed for, copied.
	queries []workload.Query
	// cfg is a shallow copy of the resolved configuration the costs were
	// computed under: a caller may go on editing its own configuration's
	// layouts in place.
	cfg *catalog.Configuration
	// rep is the state's evaluation: the weighted per-query costs under the
	// base and under cfg, and their totals.
	rep *whatif.Report

	// Recosted and Reused report how the state was built: a cold evaluation
	// recosts every query; a delta evaluation reuses the complement.
	Recosted int
	Reused   int
}

// designDiff is what differs between two configurations, as far as any
// query's costs can tell: the structures of their symmetric difference and
// the tables whose vertical or horizontal layout changed.
type designDiff struct {
	structures []*catalog.Index
	layouts    []string // lower-case
}

// diffDesigns works out the difference between configurations a and b. A
// structure of one cancels a structure of the other with the same pointer,
// or failing that the same Key, each key rendered once; a list of keys is a
// multiset, so a key listed twice cancels twice. A layout changed when its
// rendering did.
func diffDesigns(a, b *catalog.Configuration) designDiff {
	var d designDiff
	restA := slices.Clone(a.Indexes)
	var restB []*catalog.Index
	for _, ix := range b.Indexes {
		if i := slices.Index(restA, ix); i >= 0 {
			restA = slices.Delete(restA, i, i+1)
		} else {
			restB = append(restB, ix)
		}
	}
	if len(restA) > 0 && len(restB) > 0 {
		keys := make([]string, len(restA))
		for i, ix := range restA {
			keys[i] = ix.Key()
		}
		unmatched := restB[:0]
		for _, ix := range restB {
			if i := slices.Index(keys, ix.Key()); i >= 0 {
				restA, keys = slices.Delete(restA, i, i+1), slices.Delete(keys, i, i+1)
			} else {
				unmatched = append(unmatched, ix)
			}
		}
		restB = unmatched
	}
	d.structures = append(restB, restA...)
	d.layouts = changedLayouts(d.layouts, a.Vertical, b.Vertical)
	d.layouts = changedLayouts(d.layouts, a.Horizontal, b.Horizontal)
	return d
}

// changedLayouts appends to out the tables whose layout differs between a
// and b: present in one only, or in both under different renderings.
func changedLayouts[L interface {
	comparable
	String() string
}](out []string, a, b map[string]L) []string {
	var none L
	for _, m := range []map[string]L{a, b} {
		for t := range m {
			x, y := a[t], b[t]
			if x != y && (x == none || y == none || x.String() != y.String()) && !slices.Contains(out, t) {
				out = append(out, t)
			}
		}
	}
	return out
}

// reaches reports whether the difference can move the costs of the
// statement: one of its tables changed layout, or a structure of the
// difference on one of its tables could enter one of its plans.
func (d *designDiff) reaches(sel *sqlparse.SelectStmt) bool {
	for _, t := range sel.Analysis().Tables {
		if slices.Contains(d.layouts, t) {
			return true
		}
		for _, ix := range d.structures {
			if catalog.NormCol(ix.Table) == t && optimizer.CanUse(sel, t, ix) {
				return true
			}
		}
	}
	return false
}

// affectedQueries lists, in order, the queries whose costs can differ
// between configurations a and b.
func affectedQueries(qs []workload.Query, a, b *catalog.Configuration) []int {
	d := diffDesigns(a, b)
	var out []int
	for i, q := range qs {
		if d.reaches(q.Stmt) {
			out = append(out, i)
		}
	}
	return out
}

// Reusable reports whether the state can seed a delta evaluation for the
// given view and workload: same pinned generation, and the same queries in
// the same order — IDs, SQL and weights (by bits) equal.
func (st *EvalState) Reusable(v *View, w *workload.Workload) bool {
	return st != nil && st.snap == v.s && workload.SameQueries(st.queries, w.Queries)
}

// Queries is the workload the state priced, in order: the state's own
// slice, read-only like the state.
func (st *EvalState) Queries() []workload.Query { return st.queries }

// EvaluateDelta is Evaluate with warm-start: it returns the benefit report
// for cfg plus an EvalState for the next call. When prev is reusable (same
// pinned generation, same workload) only the queries whose relevant design
// slices differ between prev's configuration and cfg are recosted; the rest
// keep prev's costs. The returned report is bit-identical to a cold
// Evaluate of the same (workload, cfg) — per-query costs are either
// recomputed by the exact same plan search or reused from a previous run
// of that search, and totals are summed in the same order (differential-tested
// in delta_test.go).
//
// Pass a nil prev (or an incompatible one) for a cold evaluation that
// additionally builds the state.
func (v *View) EvaluateDelta(ctx context.Context, w *workload.Workload, cfg *catalog.Configuration, prev *EvalState) (*whatif.Report, *EvalState, error) {
	newCfg := v.s.resolve(cfg)
	if !prev.Reusable(v, w) {
		return v.evaluateCold(ctx, w, newCfg)
	}

	affected := affectedQueries(prev.queries, prev.cfg, newCfg)
	rep := prev.rep // read-only: shared until a query is recosted
	if len(affected) > 0 {
		// Base costs are pinned to the view's base configuration and never
		// move within a generation; only the hypothetical side is recosted.
		news := slices.Clone(rep.New)
		err := v.e.sweep(ctx, len(affected), func(k int) error {
			q := w.Queries[affected[k]]
			nw, err := v.search(q.Stmt, newCfg)
			if err != nil {
				return fmt.Errorf("engine: %s: %w", q.ID, err)
			}
			news[affected[k]] = nw * q.Weight
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		rep = &whatif.Report{Base: rep.Base, New: news, BaseTotal: rep.BaseTotal, NewTotal: sum(news)}
	}
	next := &EvalState{
		snap:     v.s,
		queries:  prev.queries,
		cfg:      newCfg.Clone(),
		rep:      rep,
		Recosted: len(affected),
		Reused:   len(w.Queries) - len(affected),
	}
	return rep, next, nil
}

// evaluateCold runs the full evaluation and records the delta state.
func (v *View) evaluateCold(ctx context.Context, w *workload.Workload, newCfg *catalog.Configuration) (*whatif.Report, *EvalState, error) {
	rep, err := v.Evaluate(ctx, w, newCfg)
	if err != nil {
		return nil, nil, err
	}
	st := &EvalState{
		snap:     v.s,
		queries:  slices.Clone(w.Queries),
		cfg:      newCfg.Clone(),
		rep:      rep,
		Recosted: len(w.Queries),
	}
	return rep, st, nil
}
