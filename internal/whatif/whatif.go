// Package whatif implements the paper's what-if component (§3.1) — the hub
// every other component attaches to. It simulates the benefit of physical
// structures (indexes, vertical and horizontal partitions) without building
// them: hypothetical indexes are sized realistically from statistics (the
// §2 critique of size-zero simulation), folded into a hypothetical
// Configuration, and costed by the unmodified optimizer.
//
// The what-if join sub-component (§3.1c) is exposed as optimizer.Options
// pass-through: a session built over an environment with join methods
// disabled (engine.View.SessionWith) steers and inspects plan shape.
package whatif

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
)

// Session evaluates hypothetical designs against a fixed schema/statistics
// snapshot and a base (currently materialized) configuration.
type Session struct {
	env  *optimizer.Env
	base *catalog.Configuration
}

// NewSessionFromEnv creates a what-if session over a prepared optimizer
// environment — the engine uses this to hand sessions the active cost
// backend's constants (a calibrated engine evaluates designs with
// calibrated costs). The environment's configuration is replaced by base,
// which may be nil for "no physical design" (heap-only tables).
func NewSessionFromEnv(env *optimizer.Env, base *catalog.Configuration) *Session {
	if base == nil {
		base = catalog.NewConfiguration()
	}
	return &Session{env: env.WithConfig(base), base: base}
}

// Env exposes the underlying optimizer environment (base configuration).
func (s *Session) Env() *optimizer.Env { return s.env }

// Base returns the session's base configuration.
func (s *Session) Base() *catalog.Configuration { return s.base }

// HypotheticalIndex constructs a sized what-if index on the table: leaf
// pages and height are estimated from statistics exactly as a real build
// would produce, so the optimizer prices it honestly.
func (s *Session) HypotheticalIndex(table string, columns ...string) (*catalog.Index, error) {
	t := s.env.Schema.Table(table)
	if t == nil {
		return nil, fmt.Errorf("whatif: unknown table %q", table)
	}
	if len(columns) == 0 {
		return nil, errors.New("whatif: index needs at least one column")
	}
	for _, c := range columns {
		if !t.HasColumn(c) {
			return nil, fmt.Errorf("whatif: table %s has no column %q", table, c)
		}
	}
	ts := s.env.Stats.Table(table)
	rows := int64(1000)
	if ts != nil {
		rows = ts.RowCount
	}
	pages := optimizer.EstimateIndexLeafPages(t, columns, rows)
	ix := &catalog.Index{
		Name:            hypoName(table, columns),
		Table:           t.Name,
		Columns:         append([]string(nil), columns...),
		Hypothetical:    true,
		EstimatedPages:  int64(pages),
		EstimatedHeight: optimizer.EstimateIndexHeight(pages),
	}
	return ix, nil
}

func hypoName(table string, columns []string) string {
	return "whatif_" + strings.ToLower(table) + "_" + strings.ToLower(strings.Join(columns, "_"))
}

// HypotheticalProjection constructs a sized covering projection: a
// secondary index on the key columns whose leaves also carry the INCLUDE
// payload, so index-only plans can serve queries the key alone cannot.
func (s *Session) HypotheticalProjection(table string, keys, include []string) (*catalog.Index, error) {
	t := s.env.Schema.Table(table)
	if t == nil {
		return nil, fmt.Errorf("whatif: unknown table %q", table)
	}
	if len(keys) == 0 {
		return nil, errors.New("whatif: projection needs at least one key column")
	}
	if len(include) == 0 {
		return nil, errors.New("whatif: projection needs at least one INCLUDE column; use HypotheticalIndex otherwise")
	}
	keySet := make(map[string]bool, len(keys))
	for _, c := range keys {
		if !t.HasColumn(c) {
			return nil, fmt.Errorf("whatif: table %s has no column %q", table, c)
		}
		keySet[catalog.NormCol(c)] = true
	}
	for _, c := range include {
		if !t.HasColumn(c) {
			return nil, fmt.Errorf("whatif: table %s has no column %q", table, c)
		}
		if keySet[catalog.NormCol(c)] {
			return nil, fmt.Errorf("whatif: column %q is both key and INCLUDE", c)
		}
	}
	ts := s.env.Stats.Table(table)
	rows := int64(1000)
	if ts != nil {
		rows = ts.RowCount
	}
	pages := optimizer.EstimateProjectionLeafPages(t, keys, include, rows)
	return &catalog.Index{
		Name:            hypoName(table, keys) + "_inc",
		Table:           t.Name,
		Kind:            catalog.KindProjection,
		Columns:         append([]string(nil), keys...),
		Include:         append([]string(nil), include...),
		Hypothetical:    true,
		EstimatedPages:  int64(pages),
		EstimatedHeight: optimizer.EstimateIndexHeight(pages),
	}, nil
}

// HypotheticalAggView constructs a sized single-table aggregate
// materialized view: one row per distinct group-key combination carrying
// the listed pre-computed aggregates (canonical lower-case form, e.g.
// "count(*)", "sum(psfmag_r)").
func (s *Session) HypotheticalAggView(table string, keys, aggs []string) (*catalog.Index, error) {
	t := s.env.Schema.Table(table)
	if t == nil {
		return nil, fmt.Errorf("whatif: unknown table %q", table)
	}
	if len(keys) == 0 {
		return nil, errors.New("whatif: aggregate view needs at least one group-key column")
	}
	if len(aggs) == 0 {
		return nil, errors.New("whatif: aggregate view needs at least one aggregate")
	}
	for _, c := range keys {
		if !t.HasColumn(c) {
			return nil, fmt.Errorf("whatif: table %s has no column %q", table, c)
		}
	}
	ts := s.env.Stats.Table(table)
	rows, pages := optimizer.EstimateAggViewSize(t, ts, keys, aggs)
	return &catalog.Index{
		Name:           "whatif_mv_" + strings.ToLower(table) + "_" + strings.ToLower(strings.Join(keys, "_")),
		Table:          t.Name,
		Kind:           catalog.KindAggView,
		Columns:        append([]string(nil), keys...),
		Aggs:           catalog.NormCols(aggs),
		Hypothetical:   true,
		EstimatedPages: pages,
		EstimatedRows:  rows,
	}, nil
}

// Cost plans the query under the given configuration and returns its
// estimated cost. A nil configuration means the session base.
func (s *Session) Cost(sel *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	if cfg == nil {
		return s.env.Cost(sel)
	}
	return s.env.CostUnder(sel, cfg)
}

// Explain plans the query under the configuration and renders the plan.
func (s *Session) Explain(sel *sqlparse.SelectStmt, cfg *catalog.Configuration) (string, error) {
	env := s.env
	if cfg != nil {
		env = s.env.WithConfig(cfg)
	}
	plan, err := env.Optimize(sel)
	if err != nil {
		return "", err
	}
	return plan.Explain(), nil
}

// Report is the outcome of pricing a workload under the base and a
// hypothetical configuration: Base and New are the weighted per-query
// costs, in workload order, and each total is its vector summed in that
// order. A report carries no query text: a reader labels row i with the
// workload's query i.
type Report struct {
	Base, New           []float64
	BaseTotal, NewTotal float64
}

// TotalBenefit is the workload-level absolute improvement.
func (r *Report) TotalBenefit() float64 { return r.BaseTotal - r.NewTotal }

// AvgBenefitPct is the workload-level relative improvement in percent.
func (r *Report) AvgBenefitPct() float64 {
	if r.BaseTotal == 0 {
		return 0
	}
	return r.TotalBenefit() / r.BaseTotal * 100
}
