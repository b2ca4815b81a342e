// Package autopart implements the AutoPart partitioning advisor (§3.3,
// Papadomanolakis & Ailamaki SSDBM'04): vertical partitioning driven by the
// workload's attribute-usage patterns with greedy pairwise fragment
// merging, plus horizontal range partitioning on frequently range-filtered
// columns with split points taken from histogram quantiles. All candidate
// layouts are priced with the partition-extended INUM cost model.
//
// The vertical algorithm follows AutoPart's structure:
//
//  1. Columns are grouped by usage signature — the exact set of workload
//     queries touching them. Columns always accessed together can never
//     profit from separation, so signatures are the atomic fragments.
//  2. Greedy pairwise merging: while some merge of two fragments lowers the
//     estimated workload cost (merging saves the PK-stitch join for queries
//     spanning both), apply the best merge.
//
// Primary-key columns are replicated into every fragment (AutoPart's
// replication rule), which is how fragments remain joinable.
package autopart

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// Options tune the partitioning search.
type Options struct {
	// HorizontalFragments lists fragment counts to try per table (e.g.
	// 4, 8, 16). Empty disables horizontal partitioning.
	HorizontalFragments []int
}

// DefaultOptions returns the advisor defaults.
func DefaultOptions() Options {
	return Options{HorizontalFragments: []int{4, 8, 16}}
}

// minImprovement is the relative workload-cost gain a layout must achieve
// to be adopted (guards against noise-level wins).
const minImprovement = 0.01

// TableResult reports the decision for one table.
type TableResult struct {
	Table      string
	Vertical   *catalog.VerticalLayout   // nil = keep unpartitioned
	Horizontal *catalog.HorizontalLayout // nil = none
	CostBefore float64
	CostAfter  float64
}

// Improvement is the relative cost gain for queries touching this table.
func (t TableResult) Improvement() float64 {
	if t.CostBefore == 0 {
		return 0
	}
	return (t.CostBefore - t.CostAfter) / t.CostBefore
}

// Result is the advisor's partitioning recommendation.
type Result struct {
	Config       *catalog.Configuration
	Tables       []TableResult
	BaselineCost float64
	NewCost      float64
	PricingCalls int
}

// Improvement is the workload-level relative cost gain.
func (r *Result) Improvement() float64 {
	if r.BaselineCost == 0 {
		return 0
	}
	return (r.BaselineCost - r.NewCost) / r.BaselineCost
}

// Advisor suggests partitions for a workload.
type Advisor struct {
	eng *engine.Engine
}

// New creates a partition advisor over the shared costing engine (which
// carries the partition-extended INUM cost model).
func New(eng *engine.Engine) *Advisor {
	return &Advisor{eng: eng}
}

// AdviseView computes vertical (and optionally horizontal) layouts per
// table against one pinned engine generation. base is the configuration to
// extend (typically empty or the current index set); it is not mutated.
// Candidate layouts within each search step are priced with one parallel
// sweep.
func (a *Advisor) AdviseView(ctx context.Context, v *engine.View, w *workload.Workload, base *catalog.Configuration, opts Options) (*Result, error) {
	if base == nil {
		base = catalog.NewConfiguration()
	}
	res := &Result{Config: base.Clone()}
	cost := func(cfg *catalog.Configuration) (float64, error) {
		res.PricingCalls += len(w.Queries)
		return v.WorkloadCost(ctx, w, cfg)
	}
	sweep := func(cfgs []*catalog.Configuration) ([]float64, error) {
		res.PricingCalls += len(cfgs) * len(w.Queries)
		return v.SweepConfigs(ctx, w, cfgs)
	}

	baseline, err := cost(res.Config)
	if err != nil {
		return nil, err
	}
	res.BaselineCost = baseline
	current := baseline

	for _, t := range a.eng.Schema().Tables() {
		tr := TableResult{Table: t.Name, CostBefore: current}

		// --- Vertical. -----------------------------------------------------
		frags := a.usageFragments(w, t)
		if len(frags) >= 2 {
			layout, improved, newCost, err := a.greedyMerge(t, frags, res.Config, cost, sweep, current)
			if err != nil {
				return nil, err
			}
			if improved {
				res.Config.SetVertical(layout)
				current = newCost
				tr.Vertical = layout
			}
		}

		// --- Horizontal. ----------------------------------------------------
		if len(opts.HorizontalFragments) > 0 {
			layout, improved, newCost, err := a.bestHorizontal(v, w, t, res.Config, sweep, current, opts)
			if err != nil {
				return nil, err
			}
			if improved {
				res.Config.SetHorizontal(layout)
				current = newCost
				tr.Horizontal = layout
			}
		}
		tr.CostAfter = current
		if tr.Vertical != nil || tr.Horizontal != nil {
			res.Tables = append(res.Tables, tr)
		}
	}
	res.NewCost = current
	return res, nil
}

// usageFragments groups a table's non-PK columns by usage signature: the
// set of queries touching each column.
func (a *Advisor) usageFragments(w *workload.Workload, t *catalog.Table) [][]string {
	pk := map[string]bool{}
	for _, c := range t.PrimaryKey {
		pk[strings.ToLower(c)] = true
	}
	sig := map[string][]int{} // column -> query ordinals
	for qi, q := range w.Queries {
		for c := range q.Stmt.Analysis().ColumnsOf(strings.ToLower(t.Name)) {
			if !pk[c] {
				sig[c] = append(sig[c], qi)
			}
		}
	}
	groups := map[string][]string{} // signature string -> columns
	for _, col := range t.Columns {
		lc := strings.ToLower(col.Name)
		if pk[lc] {
			continue
		}
		qs := sig[lc]
		key := fmt.Sprint(qs) // ordinals are appended in query order: stable
		groups[key] = append(groups[key], lc)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out [][]string
	for _, k := range keys {
		cols := groups[k]
		sort.Strings(cols)
		out = append(out, cols)
	}
	return out
}

// greedyMerge runs AutoPart's pairwise merge loop for one table. Each
// round prices every candidate merge in one parallel engine sweep.
func (a *Advisor) greedyMerge(
	t *catalog.Table, frags [][]string,
	cfg *catalog.Configuration,
	cost func(*catalog.Configuration) (float64, error),
	sweep func([]*catalog.Configuration) ([]float64, error),
	current float64,
) (*catalog.VerticalLayout, bool, float64, error) {
	layout := &catalog.VerticalLayout{Table: strings.ToLower(t.Name), Fragments: frags}
	trial := cfg.Clone()
	trial.SetVertical(layout)
	best, err := cost(trial)
	if err != nil {
		return nil, false, 0, err
	}

	for len(layout.Fragments) > 1 {
		type merge struct{ i, j int }
		var pairs []merge
		var trials []*catalog.Configuration
		for i := 0; i < len(layout.Fragments); i++ {
			for j := i + 1; j < len(layout.Fragments); j++ {
				merged := mergeFragments(layout.Fragments, i, j)
				trial := cfg.Clone()
				trial.SetVertical(&catalog.VerticalLayout{Table: layout.Table, Fragments: merged})
				pairs = append(pairs, merge{i: i, j: j})
				trials = append(trials, trial)
			}
		}
		costs, err := sweep(trials)
		if err != nil {
			return nil, false, 0, err
		}
		// Pick the first strictly-improving minimum in pair order — the
		// same merge the serial loop would apply.
		bestK := -1
		bestCost := best
		for k := range pairs {
			if costs[k] < bestCost-1e-9 {
				bestK, bestCost = k, costs[k]
			}
		}
		if bestK < 0 {
			break
		}
		layout.Fragments = mergeFragments(layout.Fragments, pairs[bestK].i, pairs[bestK].j)
		best = bestCost
	}

	// Adopt only when the final layout clears the improvement bar against
	// the unpartitioned table.
	if best < current*(1-minImprovement) && len(layout.Fragments) > 1 {
		return layout, true, best, nil
	}
	return nil, false, current, nil
}

// mergeFragments returns a copy of frags with i and j unioned.
func mergeFragments(frags [][]string, i, j int) [][]string {
	var out [][]string
	merged := append(append([]string{}, frags[i]...), frags[j]...)
	sort.Strings(merged)
	for k, f := range frags {
		switch k {
		case i:
			out = append(out, merged)
		case j:
		default:
			out = append(out, f)
		}
	}
	return out
}

// bestHorizontal tries range layouts on the table's most range-filtered
// column with split points at histogram quantiles; the fragment-count
// trials are priced in one parallel engine sweep.
func (a *Advisor) bestHorizontal(
	v *engine.View,
	w *workload.Workload, t *catalog.Table,
	cfg *catalog.Configuration,
	sweep func([]*catalog.Configuration) ([]float64, error),
	current float64, opts Options,
) (*catalog.HorizontalLayout, bool, float64, error) {
	col := a.rangeFilteredColumn(w, t)
	if col == "" {
		return nil, false, current, nil
	}
	// Histogram quantiles come from the pinned generation's statistics, so
	// split bounds always correspond to the costs that justify them even if
	// the engine is re-analyzed mid-run.
	ts := v.Stats().Table(t.Name)
	if ts == nil {
		return nil, false, current, nil
	}
	cs := ts.Column(col)
	if cs == nil || cs.Hist == nil {
		return nil, false, current, nil
	}

	var layouts []*catalog.HorizontalLayout
	var trials []*catalog.Configuration
	for _, k := range opts.HorizontalFragments {
		if k < 2 {
			continue
		}
		var bounds []catalog.Datum
		for i := 1; i < k; i++ {
			bounds = append(bounds, cs.Hist.Quantile(float64(i)/float64(k)))
		}
		layout := &catalog.HorizontalLayout{Table: strings.ToLower(t.Name), Column: col, Bounds: bounds}
		trial := cfg.Clone()
		trial.SetHorizontal(layout)
		layouts = append(layouts, layout)
		trials = append(trials, trial)
	}
	costs, err := sweep(trials)
	if err != nil {
		return nil, false, 0, err
	}
	bestCost := current
	var bestLayout *catalog.HorizontalLayout
	for k, layout := range layouts {
		if costs[k] < bestCost-1e-9 {
			bestCost = costs[k]
			bestLayout = layout
		}
	}
	if bestLayout != nil && bestCost < current*(1-minImprovement) {
		return bestLayout, true, bestCost, nil
	}
	return nil, false, current, nil
}

// rangeFilteredColumn returns the table column with the highest weighted
// count of range predicates in the workload, or "".
func (a *Advisor) rangeFilteredColumn(w *workload.Workload, t *catalog.Table) string {
	score := map[string]float64{}
	for _, q := range w.Queries {
		for _, conj := range q.Stmt.Analysis().FiltersOf(strings.ToLower(t.Name)) {
			sr, ok := sqlparse.SargableOf(conj)
			if ok && sr.IsRange {
				score[strings.ToLower(sr.Column)] += q.Weight
			}
		}
	}
	best, bestScore := "", 0.0
	cols := make([]string, 0, len(score))
	for c := range score {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		if score[c] > bestScore {
			best, bestScore = c, score[c]
		}
	}
	if bestScore < 2 {
		return "" // not range-filtered often enough to bother
	}
	return best
}
