// Package whatif implements the paper's what-if component (§3.1) — the hub
// every other component attaches to. It simulates the benefit of physical
// structures (indexes, vertical and horizontal partitions) without building
// them: one constructor, Session.Hypothetical, validates, sizes and names a
// hypothetical index, covering projection or aggregate view realistically
// from statistics (the §2 critique of size-zero simulation); the structure is
// folded into a hypothetical Configuration and costed by the unmodified
// optimizer.
//
// The what-if join sub-component (§3.1c) is exposed as optimizer.Options
// pass-through: a session built over an environment with join methods
// disabled (a view derived by engine.View.WithOptions) steers and inspects
// plan shape.
package whatif

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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

// HypotheticalIndex constructs a sized what-if secondary index on the
// table's columns.
func (s *Session) HypotheticalIndex(table string, columns ...string) (*catalog.Index, error) {
	return s.Hypothetical(catalog.KindSecondary, table, columns, nil)
}

// structureKinds holds, for each structure kind, the refusals of an empty
// key or extra list ("" admits an empty one) and the name's prefix and
// suffix around <table>_<keys>.
var structureKinds = [...]struct{ noKeys, noExtra, prefix, suffix string }{
	catalog.KindSecondary: {"whatif: index needs at least one column", "", "whatif_", ""},
	catalog.KindProjection: {"whatif: projection needs at least one key column",
		"whatif: projection needs at least one INCLUDE column; use HypotheticalIndex otherwise", "whatif_", "_inc"},
	catalog.KindAggView: {"whatif: aggregate view needs at least one group-key column",
		"whatif: aggregate view needs at least one aggregate", "whatif_mv_", ""},
}

// Hypothetical constructs a sized what-if structure of the kind on the
// table: a secondary index on keys (extra unused), a covering projection
// whose leaves also carry the INCLUDE columns extra, so index-only plans can
// serve queries the key alone cannot, or a single-table aggregate
// materialized view grouped on keys that stores the aggregates extra
// (canonical lower-case form, e.g. "count(*)", "sum(psfmag_r)"). Leaf pages
// and height are estimated from statistics exactly as a real build would
// produce — a projection over key and payload width, an aggregate view from
// its estimated group count — so the optimizer prices it honestly.
func (s *Session) Hypothetical(kind catalog.StructureKind, table string, keys, extra []string) (*catalog.Index, error) {
	rule := structureKinds[kind]
	t := s.env.Schema.Table(table)
	switch {
	case t == nil:
		return nil, fmt.Errorf("whatif: unknown table %q", table)
	case len(keys) == 0:
		return nil, errors.New(rule.noKeys)
	case len(extra) == 0 && rule.noExtra != "":
		return nil, errors.New(rule.noExtra)
	}
	cols, err := columns(table, t, keys)
	if err != nil {
		return nil, err
	}
	for i, c := range cols {
		if slices.Contains(cols[:i], c) {
			return nil, fmt.Errorf("whatif: column %q repeats in the key", keys[i])
		}
	}
	ix := &catalog.Index{
		Name:         rule.prefix + strings.ToLower(table) + "_" + strings.ToLower(strings.Join(keys, "_")) + rule.suffix,
		Table:        t.Name,
		Kind:         kind,
		Columns:      cols,
		Hypothetical: true,
	}
	ts := s.env.Stats.Table(table)
	leaf := cols
	switch kind {
	case catalog.KindAggView:
		aggs, err := aggregates(table, t, extra)
		if err != nil {
			return nil, err
		}
		ix.Aggs = aggs
		ix.EstimatedRows, ix.EstimatedPages = optimizer.EstimateAggViewSize(t, ts, cols, aggs)
		return ix, nil
	case catalog.KindProjection:
		include, err := columns(table, t, extra)
		if err != nil {
			return nil, err
		}
		for i, c := range include {
			if slices.Contains(cols, c) {
				return nil, fmt.Errorf("whatif: column %q is both key and INCLUDE", extra[i])
			}
		}
		ix.Include = include
		// The INCLUDE payload rides in every leaf entry beside the key.
		leaf = slices.Concat(cols, include)
	}
	rows := int64(1000)
	if ts != nil {
		rows = ts.RowCount
	}
	pages := optimizer.EstimateIndexLeafPages(t, leaf, rows)
	ix.EstimatedPages, ix.EstimatedHeight = int64(pages), optimizer.EstimateIndexHeight(pages)
	return ix, nil
}

// columns resolves the names to the table's columns, in the schema's
// spelling: two specs of one key build structures that render alike.
func columns(table string, t *catalog.Table, names []string) ([]string, error) {
	out := make([]string, len(names))
	for i, c := range names {
		col := t.Column(c)
		if col == nil {
			return nil, fmt.Errorf("whatif: table %s has no column %q", table, c)
		}
		out[i] = col.Name
	}
	return out, nil
}

// Structure resolves a spec from outside (a facade DTO, a state file) to
// the structure it names: Hypothetical's, or refusal, or — when the base
// already holds its key (materialized or imported) — the base's own, with
// its real size.
func (s *Session) Structure(kind catalog.StructureKind, table string, keys, extra []string) (*catalog.Index, error) {
	ix, err := s.Hypothetical(kind, table, keys, extra)
	if err == nil {
		ix = cmp.Or(s.base.Index(ix.Key()), ix)
	}
	return ix, err
}

// aggregates checks an aggregate view's stored aggregates against its table
// and returns them in canonical form (sqlparse.AggString): each must be
// count(*) or an aggregate of the parser's over one column of the table,
// and none may repeat another once canonical.
func aggregates(table string, t *catalog.Table, extra []string) ([]string, error) {
	out := make([]string, 0, len(extra))
	for _, a := range extra {
		f, err := sqlparse.ParseAggregate(a)
		var col *sqlparse.ColumnRef
		if err == nil && !f.Star {
			col, _ = f.Arg.(*sqlparse.ColumnRef)
		}
		switch {
		case err != nil, f.Star && f.Func != sqlparse.AggCount, !f.Star && col == nil:
			return nil, fmt.Errorf("whatif: aggregate %q is not count(*) or an aggregate of one column", a)
		case col != nil && (!t.HasColumn(col.Column) || col.Table != "" && !strings.EqualFold(col.Table, t.Name)):
			return nil, fmt.Errorf("whatif: table %s has no column %q", table, col)
		}
		canon := sqlparse.AggString(f)
		if slices.Contains(out, canon) {
			return nil, fmt.Errorf("whatif: aggregate %q repeats %s", a, canon)
		}
		out = append(out, canon)
	}
	return out, nil
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
