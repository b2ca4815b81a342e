package designer

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
)

// AdviceOptions configure a full automatic design run (Scenario 2).
type AdviceOptions struct {
	// StorageBudgetPages caps the index footprint (0 = unlimited).
	StorageBudgetPages int64
	// NodeBudget caps CoPhy's solver nodes (0 = prove optimality).
	NodeBudget int
	// Partitions enables AutoPart on top of the selected indexes.
	Partitions bool
	// Interactions enables the interaction graph and the
	// interaction-aware materialization schedule.
	Interactions bool
	// CandidateOptions widens candidate enumeration; the zero value is
	// the default design space.
	CandidateOptions CandidateOptions
	// SeedIndexes are user-suggested candidates added to the automatically
	// enumerated set — the paper's "starting point of the search" control.
	SeedIndexes []Index
	// PinIndexes additionally forces the seeds into the final solution.
	PinIndexes bool
}

// Advice is the full output of an automatic design run: the Scenario 2
// panel contents.
type Advice struct {
	// Indexes is the recommended index set (CoPhy's solution).
	Indexes []Index
	// Solver carries the CoPhy telemetry (objective, bound, gap, nodes).
	Solver *SolverResult
	// Partitions is the AutoPart result (nil unless requested/beneficial).
	Partitions *PartitionResult
	// Report lists per-query and workload-level benefits of the complete
	// design (indexes + partitions) versus the current configuration.
	Report *Report
	// Graph is the index-interaction graph over the recommendation.
	Graph *InteractionGraph
	// Schedule is the interaction-aware materialization order.
	Schedule *Schedule

	// cfg is the complete advised configuration; schema backs DDL
	// rendering — the advice knows where it came from, so DDL() needs no
	// arguments.
	cfg    *catalog.Configuration
	schema *catalog.Schema
}

// Config returns the complete advised configuration.
func (a *Advice) Config() *Configuration { return configFromInternal(a.cfg) }

// Advise runs the full automatic design pipeline (Scenario 2): candidate
// generation → CoPhy BIP → AutoPart partitions → benefit report →
// interaction graph → materialization schedule. Each phase honors ctx; a
// cancelled run returns ctx.Err() promptly, mid-sweep or mid-solve.
//
// One engine generation is pinned for the WHOLE pipeline: candidate
// generation, CoPhy, AutoPart, the benefit report, the interaction graph,
// and the schedule all price against the same snapshot, so a concurrent
// Materialize/Analyze cannot make the advice internally inconsistent (e.g.
// a report priced against a base that already contains the solver's
// indexes). For the incremental form that reuses a previous answer's
// derivation, use a design session's Advise/ReAdvise.
func (d *Designer) Advise(ctx context.Context, w *Workload, opts AdviceOptions) (*Advice, error) {
	advice, _, _, err := d.advisePipeline(ctx, d.eng.Pin(), w.internal(), opts, nil)
	return advice, err
}

// Summary renders the advice in the layout of the demo's Scenario 2 panel:
// suggested indexes and partitions on the right, per-query and average
// workload benefit on the left, schedule at the bottom.
func (a *Advice) Summary() string {
	var b strings.Builder
	b.WriteString("=== Suggested indexes ===\n")
	if len(a.Indexes) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, ix := range a.Indexes {
		fmt.Fprintf(&b, "  %-48s %8d pages\n", ix.Key(), ix.EstimatedPages)
	}
	if a.Solver != nil {
		fmt.Fprintf(&b, "  solver: objective=%.1f bound=%.1f gap=%.2f%% nodes=%d proven=%v\n",
			a.Solver.Objective, a.Solver.Bound, a.Solver.Gap()*100, a.Solver.Nodes, a.Solver.Proven)
	}
	if a.Partitions != nil && len(a.Partitions.Tables) > 0 {
		b.WriteString("=== Suggested partitions ===\n")
		for _, tr := range a.Partitions.Tables {
			if tr.Vertical != "" {
				fmt.Fprintf(&b, "  vertical   %s\n", tr.Vertical)
			}
			if tr.Horizontal != "" {
				fmt.Fprintf(&b, "  horizontal %s\n", tr.Horizontal)
			}
		}
	}
	if a.Report != nil {
		b.WriteString("=== Workload benefit ===\n")
		fmt.Fprintf(&b, "  total: %.1f -> %.1f  (%.1f%% improvement)\n",
			a.Report.BaseTotal, a.Report.NewTotal, a.Report.AvgBenefitPct())
		qs := append([]QueryBenefit(nil), a.Report.Queries...)
		sort.Slice(qs, func(i, j int) bool { return qs[i].Benefit() > qs[j].Benefit() })
		n := len(qs)
		if n > 8 {
			n = 8
		}
		for _, qb := range qs[:n] {
			fmt.Fprintf(&b, "  %-28s %10.1f -> %10.1f  (%5.1f%%)\n",
				qb.ID, qb.BaseCost, qb.NewCost, qb.BenefitPct())
		}
		if len(qs) > n {
			fmt.Fprintf(&b, "  ... and %d more queries\n", len(qs)-n)
		}
	}
	if a.Graph != nil && len(a.Graph.g.Edges) > 0 {
		b.WriteString("=== Index interactions (top 10) ===\n")
		b.WriteString(indent(a.Graph.Render(10), "  "))
	}
	if a.Schedule != nil {
		b.WriteString(indent(a.Schedule.String(), ""))
	}
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
