// Package optimizer implements the cost-based query optimizer the designer
// plans against — the stand-in for PostgreSQL's optimizer in the paper's
// architecture (PAPER.md, "This reproduction"). It performs selectivity estimation from
// statistics, single-table access-path selection (sequential, index, and
// index-only scans, partition-aware), dynamic-programming join ordering
// with nested-loop / hash / merge methods, and produces EXPLAIN-able plans
// with PostgreSQL-shaped costs.
//
// There is one plan search, and it works on values: access paths, join
// candidates and the steps above the join are compared as compact path
// records (estimates, delivered order, and what it takes to build the
// node), so a plan that loses is never built. It has two readers: Optimize
// builds the winner's nodes, and Cost reads the winner's total and builds
// none.
//
// The search runs in a workspace taken from a pool and handed back when the
// answer is read, so a warm search allocates nothing of its own: its scans,
// each table's structures (read straight from the configuration), the join
// edges' positions and oriented edge lists, the wanted orders, each
// relation set's paths and the candidates at hand are buffers it reuses.
// CostUnder prices under another configuration without copying the Env.
// Two lifetime rules keep the pool invisible:
//
//   - the plan Optimize returns owns everything it holds; its join edges in
//     particular are copied out of the workspace's edge buffer;
//   - a workspace goes back to the pool with every pointer its buffers hold
//     cleared, so an idle one pins no configuration's structures and no
//     statement.
//
// The optimizer is deliberately *configuration-driven*: it plans against an
// Env holding a schema, a statistics catalog, and a physical Configuration.
// Swapping the Configuration for a hypothetical one (internal/whatif) is
// all it takes to cost a design that does not exist — the paper's what-if
// capability.
package optimizer

import (
	"repro/internal/catalog"
	"repro/internal/stats"
)

// Env is everything the optimizer consults while planning: the logical
// schema, the statistics, and the physical design (indexes + partitions).
type Env struct {
	Schema *catalog.Schema
	Stats  *stats.Catalog
	Config *catalog.Configuration
	Params CostParams
	Opts   Options
}

// Options hosts the optimizer switches exposed by the what-if join
// component (§3.1c of the paper): join methods can be disabled to steer
// plan shape, and ZeroSizeWhatIf reproduces the size-zero hypothetical
// index flaw the paper criticizes in prior work (experiment E12).
type Options struct {
	DisableNestLoop  bool
	DisableHashJoin  bool
	DisableMergeJoin bool
	DisableIndexScan bool
	DisableSeqScan   bool // soft: seq scan is kept as a last resort
	// ZeroSizeWhatIf treats hypothetical indexes as occupying zero pages,
	// mimicking the tool of Monteiro et al. that the paper's related-work
	// section faults for "severely affecting the accuracy of the optimizer".
	ZeroSizeWhatIf bool
}

// NewEnv assembles an environment with default cost parameters.
func NewEnv(schema *catalog.Schema, st *stats.Catalog, cfg *catalog.Configuration) *Env {
	if cfg == nil {
		cfg = catalog.NewConfiguration()
	}
	return &Env{Schema: schema, Stats: st, Config: cfg, Params: DefaultCostParams()}
}

// WithConfig returns a shallow copy of the environment planning against a
// different physical configuration. This is the what-if entry point.
func (e *Env) WithConfig(cfg *catalog.Configuration) *Env {
	out := *e
	if cfg == nil {
		cfg = catalog.NewConfiguration()
	}
	out.Config = cfg
	return &out
}

// WithOptions returns a shallow copy with different optimizer switches.
func (e *Env) WithOptions(opts Options) *Env {
	out := *e
	out.Opts = opts
	return &out
}

// tableStats fetches stats for a table; returns a conservative default when
// the table was never analyzed so planning always succeeds.
func (e *Env) tableStats(table string) *stats.TableStats {
	if ts := e.Stats.Table(table); ts != nil {
		return ts
	}
	return &stats.TableStats{RowCount: 1000, Pages: 10, Columns: map[string]*stats.ColumnStats{}}
}
