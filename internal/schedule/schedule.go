// Package schedule implements interaction-aware index materialization
// scheduling (§3.5, second tool of Schnaitter et al.): given a recommended
// index set, pick the build order that maximizes the benefit accrued while
// the indexes are still being built.
//
// Indexes take real time to build (a heap scan plus a sort plus writing the
// leaves), and during that time the workload keeps running against the
// prefix built so far. The schedule metric is therefore the area under the
// workload-cost-versus-build-time curve (lower is better). Because of index
// interactions, the marginal benefit of an index depends on what has
// already been built — the greedy scheduler re-evaluates marginal benefit
// per step against the current prefix (capturing interactions through the
// INUM-costed configuration), while the oblivious baseline ranks indexes
// once by standalone benefit, which is what a designer ignoring
// interactions would do (experiment E9).
package schedule

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Step is one index build in a schedule.
type Step struct {
	Index *catalog.Index
	// BuildCost is the estimated build effort in the optimizer's cost units.
	BuildCost float64
	// CostAfter is the workload cost once this index (and all previous
	// steps) are built.
	CostAfter float64
}

// Schedule is an ordered materialization plan.
type Schedule struct {
	Steps []Step
	// BaseCost is the workload cost before any index is built.
	BaseCost float64
	// AUC is the area under the workload-cost/build-time curve: the total
	// "cost-time" experienced while materializing in this order.
	AUC float64
	// TotalBuild is the sum of build costs.
	TotalBuild float64
}

// FinalCost is the workload cost with all indexes built.
func (s *Schedule) FinalCost() float64 {
	if len(s.Steps) == 0 {
		return s.BaseCost
	}
	return s.Steps[len(s.Steps)-1].CostAfter
}

// String renders the schedule as an ordered list.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "materialization schedule (base cost %.1f):\n", s.BaseCost)
	for i, st := range s.Steps {
		fmt.Fprintf(&b, "  %2d. %-44s build=%-10.1f workload-cost-after=%.1f\n",
			i+1, st.Index.Key(), st.BuildCost, st.CostAfter)
	}
	fmt.Fprintf(&b, "  AUC(cost x build-time) = %.1f\n", s.AUC)
	return b.String()
}

// BuildCost estimates the effort to materialize a structure — expressed in
// the optimizer's cost units so it is commensurable with workload costs.
// Secondary indexes and covering projections scan the heap, sort the
// entries, and write the leaves (a projection's wider leaves show up
// through its larger EstimatedPages). An aggregate view replaces the sort
// with a hash aggregation over the group keys and writes one row per group.
func BuildCost(ix *catalog.Index, st *stats.Catalog, params optimizer.CostParams) float64 {
	ts := st.Table(ix.Table)
	if ts == nil {
		return 1
	}
	rows := float64(ts.RowCount)
	heapScan := float64(ts.Pages) * params.SeqPageCost
	leafWrite := float64(ix.EstimatedPages) * params.SeqPageCost
	if ix.Kind == catalog.KindAggView {
		groups := float64(ix.EstimatedRows)
		if groups <= 0 || groups > rows {
			groups = rows
		}
		aggCPU := rows*params.CPUOperatorCost*float64(1+len(ix.Aggs)) + groups*params.CPUTupleCost
		return heapScan + aggCPU + leafWrite + groups*params.CPUTupleCost
	}
	sortCPU := 0.0
	if rows > 1 {
		sortCPU = 2 * params.CPUOperatorCost * rows * math.Log2(rows)
	}
	return heapScan + sortCPU + leafWrite + rows*params.CPUTupleCost
}

// Scheduler orders index builds using INUM-estimated workload costs.
type Scheduler struct{}

// New creates a scheduler. The engine argument is unused: a schedule is
// priced on the view its method is handed.
func New(_ *engine.Engine) *Scheduler { return &Scheduler{} }

// extended returns the set base extended by each of the positions on its
// own.
func extended(base, positions []int) [][]int {
	sets := make([][]int, len(positions))
	for k, j := range positions {
		sets[k] = append(base[:len(base):len(base)], j)
	}
	return sets
}

// GreedyView computes the interaction-aware schedule against one pinned
// engine generation: at each step it builds the index with the best
// marginal-benefit-to-build-cost ratio relative to the prefix already
// built. Every step prices the remaining candidates in one parallel sweep.
// The indexes hold one structure per key, as a configuration does.
func (s *Scheduler) GreedyView(ctx context.Context, v *engine.View, w *workload.Workload, indexes []*catalog.Index) (*Schedule, error) {
	p, err := v.Pricing(ctx, w, indexes)
	if err != nil {
		return nil, err
	}
	out := &Schedule{}
	cur := p.Cost(nil)
	out.BaseCost = cur

	var built []int
	remaining := make([]int, len(indexes))
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		costs, err := p.Sweep(ctx, extended(built, remaining))
		if err != nil {
			return nil, err
		}
		bestI := -1
		bestRate := math.Inf(-1)
		bestCost := 0.0
		for i, j := range remaining {
			build := BuildCost(indexes[j], v.Stats(), v.Params())
			rate := (cur - costs[i]) / math.Max(build, 1e-9)
			if rate > bestRate {
				bestRate, bestI, bestCost = rate, i, costs[i]
			}
		}
		ix := indexes[remaining[bestI]]
		built = append(built, remaining[bestI])
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
		cur = bestCost
		out.Steps = append(out.Steps, Step{
			Index:     ix,
			BuildCost: BuildCost(ix, v.Stats(), v.Params()),
			CostAfter: cur,
		})
	}
	finalize(out)
	return out, nil
}

// ObliviousView computes the interaction-oblivious baseline against one
// pinned engine generation: indexes ranked once by standalone benefit per
// build cost, never re-evaluated. The indexes hold one structure per key.
func (s *Scheduler) ObliviousView(ctx context.Context, v *engine.View, w *workload.Workload, indexes []*catalog.Index) (*Schedule, error) {
	p, err := v.Pricing(ctx, w, indexes)
	if err != nil {
		return nil, err
	}
	out := &Schedule{}
	base := p.Cost(nil)
	out.BaseCost = base

	type ranked struct {
		j    int
		rate float64
	}
	all := make([]int, len(indexes))
	for j := range all {
		all[j] = j
	}
	costs, err := p.Sweep(ctx, extended(nil, all))
	if err != nil {
		return nil, err
	}
	var order []ranked
	for j, ix := range indexes {
		build := BuildCost(ix, v.Stats(), v.Params())
		order = append(order, ranked{j: j, rate: (base - costs[j]) / math.Max(build, 1e-9)})
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].rate > order[j].rate })

	var built []int
	for _, r := range order {
		built = append(built, r.j)
		out.Steps = append(out.Steps, Step{
			Index:     indexes[r.j],
			BuildCost: BuildCost(indexes[r.j], v.Stats(), v.Params()),
			CostAfter: p.Cost(built),
		})
	}
	finalize(out)
	return out, nil
}

// finalize computes AUC and totals: during each build, the workload runs at
// the cost of the previously completed prefix.
func finalize(s *Schedule) {
	prev := s.BaseCost
	for _, st := range s.Steps {
		s.AUC += prev * st.BuildCost
		s.TotalBuild += st.BuildCost
		prev = st.CostAfter
	}
}
