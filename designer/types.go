package designer

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/autopart"
	"repro/internal/catalog"
	"repro/internal/colt"
	"repro/internal/cophy"
	"repro/internal/interaction"
	"repro/internal/optimizer"
	"repro/internal/schedule"
	"repro/internal/storage"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// This file is the v2 facade's data-transfer layer: every type the public
// API exchanges is owned by this package, so external modules can name all
// of them without reaching into internal/... (which the Go toolchain would
// refuse anyway). The api_hygiene test walks the exported surface with
// go/types and fails the build if an internal type ever leaks back in.

// Index describes a (possibly hypothetical) physical design structure. As
// an input (Configuration.WithIndex, Materialize, SeedIndexes, Live.Apply,
// Autopilot.Adopt) it is a spec: Kind, Table, Columns and Include or Aggs,
// resolved through the one what-if constructor, which refuses an invalid
// spec, resolves a key the current design holds to that structure and
// sizes any other from statistics. The other fields are outputs only.
type Index struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	// Kind discriminates the structure: "" or "index" (secondary index),
	// "projection" (covering projection with INCLUDE columns), "aggview"
	// (single-table aggregate materialized view).
	Kind string
	// Include lists a projection's non-key leaf columns.
	Include []string
	// Aggs lists an aggregate view's stored aggregates in canonical form,
	// e.g. "count(*)", "sum(psfmag_r)"; Columns then hold the group keys.
	Aggs []string
	// EstimatedRows is an aggregate view's estimated group count.
	EstimatedRows int64
	// Hypothetical marks a what-if structure that exists only for costing.
	Hypothetical bool
	// EstimatedPages and EstimatedHeight are the honest what-if size (§2 of
	// the paper), or a materialized structure's real one.
	EstimatedPages  int64
	EstimatedHeight int
}

// Key returns the canonical identity string — table(col1,col2,...) for
// secondary indexes, extended with " include(...)"/" agg(...)" suffixes for
// the other kinds — rendered from the spec by catalog.StructureKey. Two
// structures with equal keys are interchangeable for design purposes.
func (ix Index) Key() string {
	kind, extra, _ := ix.spec()
	return catalog.StructureKey(kind, ix.Table, ix.Columns, extra)
}

// spec reads the DTO's kind and the list that kind carries beside its
// keys; an unknown kind is an error.
func (ix Index) spec() (catalog.StructureKind, []string, error) {
	kind, err := catalog.StructureKindByName(ix.Kind)
	switch kind {
	case catalog.KindProjection:
		return kind, ix.Include, err
	case catalog.KindAggView:
		return kind, ix.Aggs, err
	}
	return kind, nil, err
}

// structure resolves the spec through the session's one door
// (whatif.Session.Structure), returning its refusal.
func (ix Index) structure(s *whatif.Session) (*catalog.Index, error) {
	kind, extra, err := ix.spec()
	if err != nil {
		return nil, err
	}
	return s.Structure(kind, ix.Table, ix.Columns, extra)
}

// structures resolves each spec through the session's door, or returns
// the first refusal.
func structures(s *whatif.Session, ixs []Index) ([]*catalog.Index, error) {
	var out []*catalog.Index
	for _, ix := range ixs {
		six, err := ix.structure(s)
		if err != nil {
			return nil, err
		}
		out = append(out, six)
	}
	return out, nil
}

func indexFromInternal(ix *catalog.Index) Index {
	kind := ""
	if ix.Kind != catalog.KindSecondary {
		kind = ix.Kind.String()
	}
	return Index{
		Name:            ix.Name,
		Table:           ix.Table,
		Columns:         append([]string(nil), ix.Columns...),
		Unique:          ix.Unique,
		Kind:            kind,
		Include:         append([]string(nil), ix.Include...),
		Aggs:            append([]string(nil), ix.Aggs...),
		EstimatedRows:   ix.EstimatedRows,
		Hypothetical:    ix.Hypothetical,
		EstimatedPages:  ix.EstimatedPages,
		EstimatedHeight: ix.EstimatedHeight,
	}
}

func indexesFromInternal(ixs []*catalog.Index) []Index {
	if ixs == nil {
		return nil
	}
	out := make([]Index, len(ixs))
	for i, ix := range ixs {
		out[i] = indexFromInternal(ix)
	}
	return out
}

// Configuration is a physical design under consideration: a set of indexes
// plus partition layouts. The zero of the design space is NewConfiguration;
// a nil *Configuration passed to Evaluate/Cost/Explain means "the current
// materialized design".
type Configuration struct {
	cfg *catalog.Configuration
	// specs are the specs WithIndex added, resolved by the pricing view.
	specs []Index
}

// NewConfiguration returns an empty physical design.
func NewConfiguration() *Configuration {
	return &Configuration{cfg: catalog.NewConfiguration()}
}

// configFromInternal wraps an internal configuration (nil-safe).
func configFromInternal(cfg *catalog.Configuration) *Configuration {
	if cfg == nil {
		return nil
	}
	return &Configuration{cfg: cfg}
}

// resolve builds the design on a view's what-if session: the wrapped
// design plus every added spec through the one door, or the first
// refusal. A nil configuration stays nil ("current design" downstream).
func (c *Configuration) resolve(s *whatif.Session) (*catalog.Configuration, error) {
	if c == nil {
		return nil, nil
	}
	ixs, err := structures(s, c.specs)
	if err != nil {
		return nil, err
	}
	cfg := c.base()
	for _, ix := range ixs {
		cfg = cfg.WithIndex(ix)
	}
	return cfg, nil
}

// base resolves the wrapped design, treating the zero value as the empty
// design so `&designer.Configuration{}` behaves like NewConfiguration()
// instead of panicking.
func (c *Configuration) base() *catalog.Configuration {
	if c == nil || c.cfg == nil {
		return catalog.NewConfiguration()
	}
	return c.cfg
}

// added returns the specs WithIndex added (nil-safe).
func (c *Configuration) added() []Index {
	if c == nil {
		return nil
	}
	return c.specs
}

// WithIndex returns a copy of the design extended by the index's spec,
// which Cost, Evaluate and Explain resolve on the view they price with.
func (c *Configuration) WithIndex(ix Index) *Configuration {
	spec := Index{Table: ix.Table, Columns: slices.Clone(ix.Columns), Kind: ix.Kind,
		Include: slices.Clone(ix.Include), Aggs: slices.Clone(ix.Aggs)}
	return &Configuration{cfg: c.base(), specs: append(slices.Clip(c.added()), spec)}
}

// WithoutIndex returns a copy of the design without the keyed index.
func (c *Configuration) WithoutIndex(key string) *Configuration {
	key = strings.ToLower(key)
	return &Configuration{
		cfg:   c.base().WithoutIndex(key),
		specs: slices.DeleteFunc(slices.Clone(c.added()), func(s Index) bool { return s.Key() == key }),
	}
}

// HasIndex reports whether the design contains the keyed index.
func (c *Configuration) HasIndex(key string) bool {
	key = strings.ToLower(key)
	return c.base().HasIndex(key) || slices.ContainsFunc(c.added(), func(s Index) bool { return s.Key() == key })
}

// Indexes lists the design's structures, then each added spec whose key is
// not listed yet. A spec is resolved only when priced, so it is listed as
// its spec alone, marked Hypothetical, with no name and no size; a key the
// pricing view's base holds resolves then to the held structure.
func (c *Configuration) Indexes() []Index {
	out := indexesFromInternal(c.base().Indexes)
	for _, s := range c.added() {
		if key := s.Key(); !slices.ContainsFunc(out, func(o Index) bool { return o.Key() == key }) {
			s.Hypothetical = true
			out = append(out, s)
		}
	}
	return out
}

// QueryBenefit reports one query's costs under the base and a hypothetical
// configuration.
type QueryBenefit struct {
	ID       string
	SQL      string
	BaseCost float64
	NewCost  float64
}

// Benefit is BaseCost - NewCost (positive = improvement).
func (q QueryBenefit) Benefit() float64 { return q.BaseCost - q.NewCost }

// BenefitPct is the relative improvement in percent.
func (q QueryBenefit) BenefitPct() float64 {
	if q.BaseCost == 0 {
		return 0
	}
	return (q.BaseCost - q.NewCost) / q.BaseCost * 100
}

// Report aggregates per-query what-if benefits over a workload — the
// numbers the demo's interface shows in Scenarios 1 and 2.
type Report struct {
	Queries   []QueryBenefit
	BaseTotal float64
	NewTotal  float64
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

// reportFromInternal renders the engine's cost vectors as the public rows,
// labelling row i with the workload's query i: the one per-query copy an
// answer makes.
func reportFromInternal(rep *whatif.Report, w *workload.Workload) *Report {
	out := &Report{Queries: make([]QueryBenefit, len(rep.New)), BaseTotal: rep.BaseTotal, NewTotal: rep.NewTotal}
	for i, q := range w.Queries {
		out.Queries[i] = QueryBenefit{ID: q.ID, SQL: q.SQL, BaseCost: rep.Base[i], NewCost: rep.New[i]}
	}
	return out
}

// QueryPlan records which indexes the chosen plan atom of a query uses and
// its estimated cost.
type QueryPlan struct {
	QueryID string
	Cost    float64
	Indexes []Index // empty = all sequential scans
}

// SolverResult is the CoPhy BIP advisor's recommendation plus solver
// telemetry (objective, proven bound, gap, node count).
type SolverResult struct {
	// Indexes is the selected configuration.
	Indexes []Index
	// Objective is the estimated weighted workload cost under Indexes.
	Objective float64
	// BaselineCost is the workload cost with no indexes at all.
	BaselineCost float64
	// Bound is the proven lower bound on the optimal objective.
	Bound float64
	// Proven reports whether the BIP was solved to optimality.
	Proven bool
	// Nodes is the number of branch-and-bound nodes expanded.
	Nodes int
	// PerQuery lists the chosen plan atom per query.
	PerQuery []QueryPlan
	// SolveTime is wall-clock time spent in the solver (excludes pricing).
	SolveTime time.Duration
	// PricingCalls counts INUM costings spent building the BIP: 0 when a
	// design session's re-advise answered from the program its advisor
	// priced for an earlier question (same generation, workload and
	// candidates).
	PricingCalls int
}

// Gap returns the relative optimality gap of the recommendation.
func (r *SolverResult) Gap() float64 {
	if r.Objective == 0 {
		return 0
	}
	g := (r.Objective - r.Bound) / r.Objective
	if g < 0 {
		return 0
	}
	return g
}

// Improvement returns the relative workload cost reduction vs. no indexes.
func (r *SolverResult) Improvement() float64 {
	if r.BaselineCost == 0 {
		return 0
	}
	return (r.BaselineCost - r.Objective) / r.BaselineCost
}

func solverResultFromInternal(res *cophy.Result) *SolverResult {
	if res == nil {
		return nil
	}
	out := &SolverResult{
		Indexes:      indexesFromInternal(res.Indexes),
		Objective:    res.Objective,
		BaselineCost: res.BaselineCost,
		Bound:        res.Bound,
		Proven:       res.Proven,
		Nodes:        res.Nodes,
		SolveTime:    res.SolveTime,
		PricingCalls: res.PricingCalls,
	}
	if len(res.PerQuery) > 0 {
		out.PerQuery = make([]QueryPlan, len(res.PerQuery))
	}
	for i, qp := range res.PerQuery {
		out.PerQuery[i] = QueryPlan{QueryID: qp.QueryID, Cost: qp.Cost, Indexes: indexesFromInternal(qp.Indexes)}
	}
	return out
}

// TablePartition reports the partitioning decision for one table. Vertical
// and Horizontal are rendered layout descriptions ("" = keep as is).
type TablePartition struct {
	Table      string
	Vertical   string
	Horizontal string
	CostBefore float64
	CostAfter  float64
}

// Improvement is the relative cost gain for queries touching this table.
func (t TablePartition) Improvement() float64 {
	if t.CostBefore == 0 {
		return 0
	}
	return (t.CostBefore - t.CostAfter) / t.CostBefore
}

// PartitionResult is the AutoPart advisor's recommendation.
type PartitionResult struct {
	Tables       []TablePartition
	BaselineCost float64
	NewCost      float64
	PricingCalls int
	// Rewritten maps affected query IDs to their SQL rewritten onto the
	// fragment tables of the advised vertical layouts.
	Rewritten map[string]string

	cfg *catalog.Configuration
}

// Improvement is the workload-level relative cost gain.
func (r *PartitionResult) Improvement() float64 {
	if r.BaselineCost == 0 {
		return 0
	}
	return (r.BaselineCost - r.NewCost) / r.BaselineCost
}

// Config returns the advised configuration (base design plus partitions),
// usable with Evaluate/Cost/Explain.
func (r *PartitionResult) Config() *Configuration { return configFromInternal(r.cfg) }

// InteractionEdge is one interaction-graph edge between two index keys.
type InteractionEdge struct {
	A, B string
	Doi  float64 // degree of interaction
}

// InteractionGraph is the index-interaction graph over a set of indexes
// (Figure 2 of the paper).
type InteractionGraph struct {
	g *interaction.Graph
}

func graphFromInternal(g *interaction.Graph) *InteractionGraph {
	if g == nil {
		return nil
	}
	return &InteractionGraph{g: g}
}

// Indexes lists the analyzed index set.
func (g *InteractionGraph) Indexes() []Index { return indexesFromInternal(g.g.Indexes) }

// Edges lists all interacting pairs, strongest first.
func (g *InteractionGraph) Edges() []InteractionEdge {
	out := make([]InteractionEdge, 0, len(g.g.Edges))
	for _, e := range g.g.Edges {
		out = append(out, InteractionEdge{
			A: g.g.Indexes[e.A].Key(), B: g.g.Indexes[e.B].Key(), Doi: e.Doi,
		})
	}
	return out
}

// Render formats the top-k edges as text.
func (g *InteractionGraph) Render(topK int) string { return g.g.Render(topK) }

// DOT emits the top-k edges as a Graphviz graph.
func (g *InteractionGraph) DOT(topK int) string { return g.g.DOT(topK) }

// Matrix renders the full degree-of-interaction matrix.
func (g *InteractionGraph) Matrix() string { return g.g.Matrix() }

// StableSubsets partitions the index set into groups whose members only
// interact (above eps) within the group; returned as groups of index keys.
func (g *InteractionGraph) StableSubsets(eps float64) [][]string {
	var out [][]string
	for _, grp := range g.g.StableSubsets(eps) {
		keys := make([]string, 0, len(grp))
		for _, ord := range grp {
			keys = append(keys, g.g.Indexes[ord].Key())
		}
		out = append(out, keys)
	}
	return out
}

// ScheduleStep is one index build in a materialization schedule.
type ScheduleStep struct {
	Index Index
	// BuildCost is the estimated build effort in optimizer cost units.
	BuildCost float64
	// CostAfter is the workload cost once this step (and all previous ones)
	// are built.
	CostAfter float64
}

// Schedule is an ordered materialization plan.
type Schedule struct {
	Steps []ScheduleStep
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

func scheduleFromInternal(s *schedule.Schedule) *Schedule {
	if s == nil {
		return nil
	}
	out := &Schedule{BaseCost: s.BaseCost, AUC: s.AUC, TotalBuild: s.TotalBuild}
	for _, st := range s.Steps {
		out.Steps = append(out.Steps, ScheduleStep{
			Index: indexFromInternal(st.Index), BuildCost: st.BuildCost, CostAfter: st.CostAfter,
		})
	}
	return out
}

// CacheStats reports the costing engine's counters: the full optimizations
// spent building costing-cache entries and the costings answered from them
// — the telemetry behind the paper's INUM speedup claim — and the full plan
// searches run outside the cache (what-if evaluations, full-cost baselines).
type CacheStats struct {
	FullOptimizations int64
	CachedCostings    int64
	PlanSearches      int64
}

// IOStats counts logical page I/O. Sequential and random reads are tracked
// separately because the cost model prices them differently.
type IOStats struct {
	SeqPages    int64
	RandomPages int64
	TuplesRead  int64
}

// Total returns all page reads regardless of access pattern.
func (s IOStats) Total() int64 { return s.SeqPages + s.RandomPages }

// String renders the counter compactly.
func (s IOStats) String() string {
	return fmt.Sprintf("io{seq=%d rand=%d tuples=%d}", s.SeqPages, s.RandomPages, s.TuplesRead)
}

func ioFromInternal(io storage.IOCounter) IOStats { return IOStats(io) }

// ColumnInfo describes one column of a table.
type ColumnInfo struct {
	Name       string
	Type       string
	PrimaryKey bool
}

// TableInfo describes one table of the designer's database.
type TableInfo struct {
	Name          string
	RowCount      int64
	Pages         int64
	RowWidthBytes int
	Columns       []ColumnInfo
}

// QueryResult is a materialized execution result. Row values are rendered
// as strings.
type QueryResult struct {
	Columns []string
	Rows    [][]string
	IO      IOStats
}

// JoinControl steers the what-if join component: individual join methods
// (and scan types) can be disabled to inspect how plan shape reacts.
type JoinControl struct {
	DisableNestLoop  bool
	DisableHashJoin  bool
	DisableMergeJoin bool
	DisableIndexScan bool
	DisableSeqScan   bool // soft: seq scan is kept as a last resort
}

func (j JoinControl) internal() optimizer.Options {
	return optimizer.Options{
		DisableNestLoop:  j.DisableNestLoop,
		DisableHashJoin:  j.DisableHashJoin,
		DisableMergeJoin: j.DisableMergeJoin,
		DisableIndexScan: j.DisableIndexScan,
		DisableSeqScan:   j.DisableSeqScan,
	}
}

// CandidateOptions widen automatic candidate-structure enumeration beyond
// plain secondary indexes. The zero value is the default design space:
// composite indexes up to three key columns plus covering indexes, at most
// twelve candidates per table.
type CandidateOptions struct {
	// IncludeProjections widens the design space with covering-projection
	// candidates (key prefix + INCLUDE payload). Off by default so
	// plain-index advice stays bit-identical.
	IncludeProjections bool
	// IncludeAggViews widens the design space with single-table aggregate
	// materialized-view candidates. Off by default, same contract.
	IncludeAggViews bool
}

// PartitionOptions tune the AutoPart partitioning search.
type PartitionOptions struct {
	// HorizontalFragments lists fragment counts to try per table (e.g.
	// 4, 8, 16). Empty disables horizontal partitioning.
	HorizontalFragments []int
}

// DefaultPartitionOptions returns the AutoPart defaults.
func DefaultPartitionOptions() PartitionOptions {
	return PartitionOptions(autopart.DefaultOptions())
}

func (o PartitionOptions) internal() autopart.Options {
	return autopart.Options{HorizontalFragments: append([]int(nil), o.HorizontalFragments...)}
}

// TunerOptions configure the COLT online tuner. The adoption threshold (a
// 2% epoch-cost gain) and auto-materialization (on) are COLT's defaults and
// no caller varies them.
type TunerOptions struct {
	// EpochLength is the number of observed queries per tuning epoch.
	EpochLength int
	// SpaceBudgetPages caps the materialized index footprint (0 =
	// unlimited).
	SpaceBudgetPages int64
	// WhatIfBudget is the maximum number of what-if costings per epoch.
	WhatIfBudget int
}

// DefaultTunerOptions returns the COLT defaults.
func DefaultTunerOptions() TunerOptions {
	o := colt.DefaultOptions()
	return TunerOptions{EpochLength: o.EpochLength, SpaceBudgetPages: o.SpaceBudgetPages, WhatIfBudget: o.WhatIfBudget}
}

func (o TunerOptions) internal() colt.Options {
	out := colt.DefaultOptions()
	out.EpochLength = o.EpochLength
	out.SpaceBudgetPages = o.SpaceBudgetPages
	out.WhatIfBudget = o.WhatIfBudget
	return out
}

// TunerAlert is the message the online tuner raises when a better
// configuration exists.
type TunerAlert struct {
	Epoch           int
	Added           []Index
	Dropped         []Index
	ExpectedBenefit float64 // estimated epoch-cost reduction
	EpochCost       float64 // epoch cost under the outgoing configuration
	Applied         bool
	// Scores is the projected per-epoch benefit of every index in the
	// proposed configuration, keyed by index key.
	Scores map[string]float64
}

// String renders the alert.
func (a TunerAlert) String() string {
	var add, drop []string
	for _, ix := range a.Added {
		add = append(add, ix.Key())
	}
	for _, ix := range a.Dropped {
		drop = append(drop, ix.Key())
	}
	pct := 0.0
	if a.EpochCost > 1e-9 {
		pct = 100 * a.ExpectedBenefit / a.EpochCost
	}
	return fmt.Sprintf("epoch %d: +[%s] -[%s] expected benefit %.1f (%.1f%% of epoch cost)",
		a.Epoch, strings.Join(add, ", "), strings.Join(drop, ", "), a.ExpectedBenefit, pct)
}

func alertFromInternal(a colt.Alert) TunerAlert {
	out := TunerAlert{
		Epoch:           a.Epoch,
		Added:           indexesFromInternal(a.Added),
		Dropped:         indexesFromInternal(a.Dropped),
		ExpectedBenefit: a.ExpectedBenefit,
		EpochCost:       a.EpochCost,
		Applied:         a.Applied,
	}
	if len(a.Scores) > 0 {
		out.Scores = maps.Clone(a.Scores)
	}
	return out
}

func alertsFromInternal(alerts []colt.Alert) []TunerAlert {
	out := make([]TunerAlert, len(alerts))
	for i, a := range alerts {
		out[i] = alertFromInternal(a)
	}
	return out
}

// TunerReport summarizes one tuning epoch for dashboards.
type TunerReport struct {
	Epoch         int      `json:"epoch"`
	Queries       int      `json:"queries"`
	EpochCost     float64  `json:"epoch_cost"` // Σ estimated query costs under the live config
	WhatIfCalls   int      `json:"whatif_calls"`
	ConfigChanged bool     `json:"config_changed"`
	IndexKeys     []string `json:"indexes"`
}

// reportsFromInternal converts per-epoch summaries, copying each key list.
func reportsFromInternal(reps []colt.EpochReport) []TunerReport {
	out := make([]TunerReport, len(reps))
	for i, r := range reps {
		out[i] = TunerReport(r)
		out[i].IndexKeys = append([]string(nil), r.IndexKeys...)
	}
	return out
}
