package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// EvalState is the reusable outcome of one benefit evaluation: the per-query
// costs computed for a (workload, configuration) pair against one pinned
// generation, together with each query's footprint — which tables it
// touches and which columns it references on them. A subsequent evaluation
// of the same workload under a configuration that differs by K indexes (or
// partition layouts) only recosts the queries whose plan choice could
// actually move; every other query's cost is provably unchanged and is
// copied. This is the delta-costing layer behind the interactive re-advise
// loop: identical numbers to a cold Evaluate, a fraction of the work.
//
// Relevance is the optimizer's own exact-conservative rule
// (optimizer.CanUse, next to the path generation it mirrors): a structure
// failing it is invisible to that query's optimization, so adding or
// dropping it cannot change the query's cost. The state keeps each query's
// footprint, not its statement: a re-parsed workload (every serve request
// parses its statements afresh) is matched by fingerprint, so the state
// neither pins the statements it was built from nor analyses the new ones
// beyond those a delta recosts.
type EvalState struct {
	// snap pins the generation the costs were computed against; a state is
	// only reusable on a view holding the same snapshot.
	snap *snapshot
	// workloadFP fingerprints the workload (IDs, SQL, weights, order).
	workloadFP string
	// queries are the per-query weighted costs of the state's evaluation.
	queries []whatif.QueryBenefit
	// rels are the per-query footprints.
	rels []*sqlparse.Footprint
	// sigs[i][t] is query i's relevant design signature for its t-th table
	// under the state's evaluated configuration.
	sigs [][]string

	// Recosted and Reused report how the state was built: a cold evaluation
	// recosts every query; a delta evaluation reuses the complement.
	Recosted int
	Reused   int
}

// relevantSignature renders the slice of cfg that can influence the access
// of the query with footprint f to its t-th table: the keys of relevant
// structures (sorted) plus any partition layouts. Two configurations with
// equal relevant signatures on every table of a query price that query
// identically.
func relevantSignature(f *sqlparse.Footprint, cfg *catalog.Configuration, t int) string {
	table := f.Tables[t]
	var parts []string
	for _, ix := range cfg.IndexesOn(table) {
		if optimizer.CanUse(f, table, ix) {
			parts = append(parts, ix.Key())
		}
	}
	sort.Strings(parts)
	if v := cfg.VerticalOn(table); v != nil {
		parts = append(parts, v.String())
	}
	if h := cfg.HorizontalOn(table); h != nil {
		parts = append(parts, h.String())
	}
	return strings.Join(parts, ";")
}

// signatures computes every query's per-table relevant signatures for cfg.
func signatures(rels []*sqlparse.Footprint, cfg *catalog.Configuration) [][]string {
	out := make([][]string, len(rels))
	for i, f := range rels {
		sigs := make([]string, len(f.Tables))
		for t := range f.Tables {
			sigs[t] = relevantSignature(f, cfg, t)
		}
		out[i] = sigs
	}
	return out
}

// Reusable reports whether the state can seed a delta evaluation for the
// given view and workload: same pinned generation, same workload content.
func (st *EvalState) Reusable(v *View, w *workload.Workload) bool {
	return st != nil && st.snap == v.s && st.workloadFP == w.Fingerprint()
}

// EvaluateDelta is Evaluate with warm-start: it returns the benefit report
// for cfg plus an EvalState for the next call. When prev is reusable (same
// pinned generation, same workload) only the queries whose relevant design
// slices differ between prev's configuration and cfg are recosted; the rest
// are copied. The returned report is bit-identical to a cold Evaluate of
// the same (workload, cfg) — per-query costs are either recomputed by the
// exact same backend call or reused from a previous run of that call, and
// totals are summed in the same order (differential-tested in
// delta_test.go).
//
// Pass a nil prev (or an incompatible one) for a cold evaluation that
// additionally builds the state.
func (v *View) EvaluateDelta(ctx context.Context, w *workload.Workload, cfg *catalog.Configuration, prev *EvalState) (*whatif.Report, *EvalState, error) {
	newCfg := v.s.resolve(cfg)
	if !prev.Reusable(v, w) {
		return v.evaluateCold(ctx, w, newCfg)
	}

	sigs := signatures(prev.rels, newCfg)
	var affected []int
	for i := range prev.rels {
		for t := range sigs[i] {
			if sigs[i][t] != prev.sigs[i][t] {
				affected = append(affected, i)
				break
			}
		}
	}

	next := &EvalState{
		snap:       v.s,
		workloadFP: prev.workloadFP,
		queries:    append([]whatif.QueryBenefit(nil), prev.queries...),
		rels:       prev.rels,
		sigs:       sigs,
		Recosted:   len(affected),
		Reused:     len(w.Queries) - len(affected),
	}
	err := v.e.sweep(ctx, len(affected), func(k int) error {
		i := affected[k]
		q := w.Queries[i]
		nw, err := v.backend.StmtCost(q.Stmt, newCfg)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", q.ID, err)
		}
		// Base costs are pinned to the view's base configuration and never
		// move within a generation; only the hypothetical side is recosted.
		next.queries[i].NewCost = nw * q.Weight
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &whatif.Report{Queries: append([]whatif.QueryBenefit(nil), next.queries...)}
	for _, qb := range rep.Queries {
		rep.BaseTotal += qb.BaseCost
		rep.NewTotal += qb.NewCost
	}
	return rep, next, nil
}

// evaluateCold runs the full evaluation and records the delta state.
func (v *View) evaluateCold(ctx context.Context, w *workload.Workload, newCfg *catalog.Configuration) (*whatif.Report, *EvalState, error) {
	rep, err := v.Evaluate(ctx, w, newCfg)
	if err != nil {
		return nil, nil, err
	}
	rels := make([]*sqlparse.Footprint, len(w.Queries))
	for i, q := range w.Queries {
		rels[i] = q.Stmt.Analysis().Footprint
	}
	st := &EvalState{
		snap:       v.s,
		workloadFP: w.Fingerprint(),
		queries:    append([]whatif.QueryBenefit(nil), rep.Queries...),
		rels:       rels,
		sigs:       signatures(rels, newCfg),
		Recosted:   len(w.Queries),
	}
	return rep, st, nil
}
