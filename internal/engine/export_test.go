package engine

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/workload"
)

// AffectedQueries is the delta's relevance rule, for the external tests:
// the queries whose costs can differ between two configurations.
var AffectedQueries = affectedQueries

// SweepQueryConfigs prices one query under many configurations in parallel
// against the pinned view: the door the index advisors used before they
// priced sets of numbered structures, kept for the view twins.
func (v *View) SweepQueryConfigs(ctx context.Context, q workload.Query, cfgs []*catalog.Configuration) ([]float64, error) {
	cq, err := v.entry(q.Stmt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.ID, err)
	}
	costs := make([]float64, len(cfgs))
	err = v.e.sweep(ctx, len(cfgs), func(i int) error {
		c, err := v.cache.CostFor(cq, v.s.resolve(cfgs[i]))
		costs[i] = c
		return err
	})
	if err != nil {
		return nil, err
	}
	return costs, nil
}
