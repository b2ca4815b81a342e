// Package designer is the public API of the automated, interactive and
// portable DB designer the paper demonstrates. It wires the what-if
// component, the CoPhy index advisor, the AutoPart partition advisor, the
// COLT online tuner, the index-interaction analyzer and the materialization
// scheduler (Figure 1 of the paper) behind one facade.
//
// This is the v2 facade: every exported signature speaks only
// designer-owned types — no internal/... type appears anywhere on the
// public surface (the api_hygiene test enforces it) — and every
// long-running entry point (Advise, AdvisePartitions, Evaluate,
// Materialize, the online tuner and the autopilot, a design session's
// Evaluate, Advise, ReAdvise and InteractionGraph) takes a
// context.Context as its first argument. Cancellation is honored deep
// inside the costing engine's parallel sweeps and the CoPhy
// branch-and-bound, so a cancelled context aborts mid-sweep, not after.
//
// One design question has one entry point: Advise answers it, and every
// panel of the answer — CoPhy's solution and gap, AutoPart's partitions,
// the benefit report, the interaction graph and the schedule — is a field
// of the Advice it returns. AdvisePartitions asks a different question
// (partitions over the current design, Figure 3). The baselines the
// paper's experiments compare against (DTA-style greedy, the exhaustive
// optimum, the interaction-oblivious schedule) are not entry points:
// `dbdesigner bench --experiments cophy_vs_greedy,interaction_schedule`
// reproduces those comparisons.
//
// Typical use:
//
//	d, _ := designer.OpenSDSS("small", 1)                      // or NewFromDDL
//	w, _ := d.WorkloadFromSQL([]string{"SELECT ...", ...})
//	advice, _ := d.Advise(ctx, w, designer.AdviceOptions{StorageBudgetPages: 5000})
//	fmt.Println(advice.Summary())
//	_, _ = d.Materialize(ctx, advice.Indexes)                  // optional
//
// Scenario 1 (manual what-if) is served by NewDesignSession, Scenario 2
// (automatic design + schedule) by Advise, and Scenario 3 (continuous
// tuning) by NewOnlineTuner. The designer/serve package exposes the same
// facade as a JSON-over-HTTP service (`dbdesigner serve`).
package designer

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/autopart"
	"repro/internal/catalog"
	"repro/internal/colt"
	"repro/internal/engine"
	"repro/internal/executor"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Designer is the top-level tool handle. It is safe for concurrent use:
// costing flows through a concurrency-safe engine with generation
// versioning, and physical mutations (Materialize, Analyze, Insert) are
// serialized internally.
type Designer struct {
	store *storage.Store
	eng   *engine.Engine
	exec  *executor.Executor

	// mu guards the store's mutable physical state (heaps, materialized
	// index registry): writers (Materialize, Analyze, Insert) take the
	// write lock, store-reading paths the read lock. Pure costing paths go
	// through the engine's own snapshotting and need no lock.
	mu sync.RWMutex

	// trees shares one parsed tree per exact SQL text among ParseQuery's
	// callers, for as long as some holder keeps it (trees.go).
	trees *treeTable
}

// openStore creates a designer over a populated, analyzed store with the
// cost backend the options select.
func openStore(store *storage.Store, opts []Option) (*Designer, error) {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.record {
		return nil, errors.New("designer: WithRecording records a live server's wire traffic; open with OpenLive or OpenLiveTrace")
	}
	espec, err := o.spec.internal()
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewWithBackend(store.Schema, store.Stats, store.MaterializedConfiguration(), espec)
	if err != nil {
		return nil, err
	}
	return &Designer{
		store: store,
		eng:   eng,
		exec:  executor.New(store),
		trees: newTreeTable(),
	}, nil
}

// OpenSDSS generates the synthetic SDSS demo dataset deterministically and
// opens a designer over it. size is "tiny", "small", or "medium". Options
// select the cost backend (WithBackend).
func OpenSDSS(size string, seed int64, opts ...Option) (*Designer, error) {
	sz, err := workload.SizeByName(size)
	if err != nil {
		return nil, err
	}
	store, err := workload.Generate(sz, seed)
	if err != nil {
		return nil, err
	}
	return openStore(store, opts)
}

// DatabaseInfo is the designer's self-description: the active cost backend
// plus per-table shapes.
type DatabaseInfo struct {
	// Backend identifies the cost model every design decision prices
	// against.
	Backend BackendInfo
	// Tables lists row counts, page counts, row widths, and column types.
	Tables []TableInfo
}

// Describe reports the designer's active cost backend and its tables — the
// portable replacement for exposing the raw schema objects.
func (d *Designer) Describe() DatabaseInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := DatabaseInfo{Backend: backendInfoFromInternal(d.eng.Pin().Backend())}
	for _, t := range d.store.Schema.Tables() {
		info := TableInfo{Name: t.Name, RowWidthBytes: t.RowWidthBytes()}
		if h := d.store.Heap(t.Name); h != nil {
			info.RowCount = h.RowCount()
		}
		if ts := d.store.Stats.Table(t.Name); ts != nil {
			info.Pages = ts.Pages
			if info.RowCount == 0 {
				info.RowCount = ts.RowCount
			}
		}
		pk := map[string]bool{}
		for _, c := range t.PrimaryKey {
			pk[c] = true
		}
		for _, c := range t.Columns {
			info.Columns = append(info.Columns, ColumnInfo{
				Name: c.Name, Type: c.Type.String(), PrimaryKey: pk[c.Name],
			})
		}
		out.Tables = append(out.Tables, info)
	}
	return out
}

// DescribeTable reports one table by (case-insensitive) name.
func (d *Designer) DescribeTable(name string) (TableInfo, bool) {
	for _, t := range d.Describe().Tables {
		if strings.EqualFold(t.Name, name) {
			return t, true
		}
	}
	return TableInfo{}, false
}

// CurrentConfiguration returns (a copy of) the materialized physical
// design.
func (d *Designer) CurrentConfiguration() *Configuration {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return configFromInternal(d.store.MaterializedConfiguration())
}

// CacheStats reports the full optimizations, cached costings and plan
// searches of every question the designer has answered, over its whole
// life. Each question builds its own costing cache, so the counts only
// rise: to measure one question, read them before and after it and take the
// difference.
func (d *Designer) CacheStats() CacheStats {
	full, cached := d.eng.CacheStats()
	return CacheStats{FullOptimizations: full, CachedCostings: cached, PlanSearches: d.eng.PlanSearches()}
}

// SetWorkers bounds the in-process sweep pool (0 restores the GOMAXPROCS
// default) — the dbdesigner --workers N wiring.
func (d *Designer) SetWorkers(n int) { d.eng.SetWorkers(n) }

// Workers reports the effective in-process sweep pool width.
func (d *Designer) Workers() int { return d.eng.Workers() }

// ParseQuery parses and resolves one SELECT statement into a workload
// query (weight 1). A statement with a $n parameter is refused: the advisors
// price constants, and only a live import has statistics to choose them by.
//
// Trees are shared by exact text: while any holder keeps the tree of an
// earlier ParseQuery of the same text — a workload, a design session's last
// evaluation — that tree is returned instead of a new parse. A tree is
// immutable after Resolve, so two queries (under different IDs or weights)
// may share one.
func (d *Designer) ParseQuery(id, sql string) (Query, error) {
	stmt := d.trees.lookup(sql)
	if stmt == nil {
		parsed, err := sqlparse.ParseSelect(sql)
		if err != nil {
			return Query{}, err
		}
		if err := d.resolveBound(parsed); err != nil {
			return Query{}, err
		}
		stmt = d.trees.publish(sql, parsed)
	}
	return Query{id: id, sql: sql, weight: 1, stmt: stmt}, nil
}

// resolveBound resolves a parsed statement against the schema and refuses
// one that holds a parameter, at the parameter's position.
func (d *Designer) resolveBound(stmt *sqlparse.SelectStmt) error {
	if p := stmt.FirstParam(); p != nil {
		return p.Errorf("parameter %s is not bound", p)
	}
	return sqlparse.Resolve(stmt, d.store.Schema)
}

// WorkloadFromSQL builds a workload from SQL strings (weight 1 each),
// through ParseQuery: a text whose tree is still held elsewhere is not
// parsed again, and its query shares that immutable tree.
func (d *Designer) WorkloadFromSQL(sqls []string) (*Workload, error) {
	w := &workload.Workload{Queries: make([]workload.Query, 0, len(sqls))}
	for i, sql := range sqls {
		q, err := d.ParseQuery("q"+strconv.Itoa(i), sql)
		if err != nil {
			return nil, fmt.Errorf("designer: query %d: %w", i, err)
		}
		w.Queries = append(w.Queries, q.internal())
	}
	return workloadFromInternal(w), nil
}

// WorkloadFromScript parses a semicolon-separated script of SELECTs.
func (d *Designer) WorkloadFromScript(script string) (*Workload, error) {
	stmts, err := sqlparse.ParseScript(script)
	if err != nil {
		return nil, err
	}
	w := &workload.Workload{Queries: make([]workload.Query, 0, len(stmts))}
	for i, stmt := range stmts {
		sel, ok := stmt.(*sqlparse.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("designer: statement %d is not a SELECT", i)
		}
		if err := d.resolveBound(sel); err != nil {
			return nil, err
		}
		w.Queries = append(w.Queries, workload.Query{
			ID: "q" + strconv.Itoa(i), SQL: sel.String(), Weight: 1, Stmt: sel,
		})
	}
	return workloadFromInternal(w), nil
}

// GenerateWorkload draws n queries from the demo's SDSS template mix with
// the given seed — the default workload of the paper's scenarios.
func (d *Designer) GenerateWorkload(seed int64, n int) (*Workload, error) {
	w, err := workload.NewWorkload(d.store.Schema, seed, n)
	if err != nil {
		return nil, err
	}
	return workloadFromInternal(w), nil
}

// DriftStream generates the Scenario 3 drifting query stream: three phases
// (photometric → spectroscopic → neighbors) of perPhase queries each.
func (d *Designer) DriftStream(seed int64, perPhase int) ([]Query, error) {
	qs, err := workload.Stream(d.store.Schema, seed, workload.DefaultDriftPhases(perPhase))
	if err != nil {
		return nil, err
	}
	return queriesFromInternal(qs), nil
}

// HypotheticalIndex constructs a sized what-if index (leaf pages and
// height estimated from statistics — the paper's honest-size requirement).
func (d *Designer) HypotheticalIndex(table string, columns ...string) (Index, error) {
	return d.hypothetical(catalog.KindSecondary, table, columns, nil)
}

// HypotheticalProjection constructs a sized what-if covering projection:
// key columns plus INCLUDE leaf columns, honestly sized over the combined
// width so budget accounting charges for the payload it carries.
func (d *Designer) HypotheticalProjection(table string, keys, include []string) (Index, error) {
	return d.hypothetical(catalog.KindProjection, table, keys, include)
}

// HypotheticalAggView constructs a sized what-if single-table aggregate
// materialized view: group keys plus stored aggregates (canonical strings
// like "count(*)", "sum(col)"), with the group count estimated from column
// distinct-value statistics.
func (d *Designer) HypotheticalAggView(table string, keys, aggs []string) (Index, error) {
	return d.hypothetical(catalog.KindAggView, table, keys, aggs)
}

// hypothetical constructs a sized what-if structure of the kind on the
// current generation.
func (d *Designer) hypothetical(kind catalog.StructureKind, table string, keys, extra []string) (Index, error) {
	ix, err := d.eng.Pin().Session().Hypothetical(kind, table, keys, extra)
	if err != nil {
		return Index{}, err
	}
	return indexFromInternal(ix), nil
}

// Explain plans a query under the given (or nil = current materialized)
// configuration and renders the plan tree; the design's specs resolve on
// the current generation, and a refusal is returned.
func (d *Designer) Explain(q Query, cfg *Configuration) (string, error) {
	if err := q.valid(); err != nil {
		return "", err
	}
	v := d.eng.Pin()
	icfg, err := cfg.resolve(v.Session())
	if err != nil {
		return "", err
	}
	plan, err := v.Optimize(q.stmt, icfg)
	if err != nil {
		return "", err
	}
	return plan.Explain(), nil
}

// Execute runs a query against the store under the materialized design and
// returns its rows plus measured I/O.
func (d *Designer) Execute(q Query) (*QueryResult, error) {
	if err := q.valid(); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	plan, err := d.eng.Pin().Optimize(q.stmt, nil)
	if err != nil {
		return nil, err
	}
	res, err := d.exec.Run(plan)
	if err != nil {
		return nil, err
	}
	out := &QueryResult{
		Columns: append([]string(nil), res.Columns...),
		IO:      ioFromInternal(res.IO),
	}
	for _, row := range res.Rows {
		vals := make([]string, len(row))
		for i, v := range row {
			vals[i] = v.String()
		}
		out.Rows = append(out.Rows, vals)
	}
	return out, nil
}

// Cost estimates one query's cost under a configuration (nil = current
// materialized design) with the full optimizer, as Explain resolves it.
func (d *Designer) Cost(q Query, cfg *Configuration) (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	v := d.eng.Pin()
	icfg, err := cfg.resolve(v.Session())
	if err != nil {
		return 0, err
	}
	return v.FullCost(q.stmt, icfg)
}

// Evaluate reports per-query and workload-level benefits of a hypothetical
// configuration (resolved as Explain does) versus the current materialized
// design. Queries are priced in parallel; a cancelled context aborts
// mid-evaluation.
func (d *Designer) Evaluate(ctx context.Context, w *Workload, cfg *Configuration) (*Report, error) {
	v := d.eng.Pin()
	icfg, err := cfg.resolve(v.Session())
	if err != nil {
		return nil, err
	}
	rep, err := v.Evaluate(ctx, w.internal(), icfg)
	if err != nil {
		return nil, err
	}
	return reportFromInternal(rep, w.internal()), nil
}

// Materialize physically builds the given indexes in the store (Scenario
// 2's "physically create the suggested indexes"). It returns the total
// build I/O and honors ctx between index builds. A spec the what-if
// constructor refuses is refused before anything is built; a structure is
// built under the constructor's name.
func (d *Designer) Materialize(ctx context.Context, indexes []Index) (IOStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// One invalidation point, which must run even when the loop stops
	// early (cancellation, build error) after building some indexes: the
	// engine rebuilds the optimizer environment and the what-if session
	// against the new physical design, and every later question builds its
	// INUM cache on them — a store holding indexes the engine's generation
	// doesn't know about would silently mis-price the "current design". Design
	// sessions pinned before this point keep their generation (see
	// NewDesignSession).
	built := false
	defer func() {
		if built {
			d.eng.SetBaseConfig(d.store.MaterializedConfiguration())
		}
	}()
	var total storage.IOCounter
	ixs, err := structures(d.eng.Pin().Session(), indexes)
	if err != nil {
		return ioFromInternal(total), err
	}
	for _, ix := range ixs {
		if err := ctx.Err(); err != nil {
			return ioFromInternal(total), err
		}
		if ix.Kind != catalog.KindSecondary {
			// The embedded store only builds plain B-tree indexes; wider
			// structures are emitted as DDL for an external system instead of
			// silently degrading into something with different semantics.
			return ioFromInternal(total), fmt.Errorf(
				"designer: materialize %s: %s structures are advisory-only here; apply the DDL() output externally",
				ix.Key(), ix.Kind)
		}
		if d.store.Index(ix.Key()) != nil {
			continue
		}
		_, io, err := d.store.CreateIndex(ix.Name, ix.Table, ix.Columns)
		if err != nil {
			return ioFromInternal(total), fmt.Errorf("designer: materialize %s: %w", ix.Key(), err)
		}
		built = true
		total.Add(io)
	}
	return ioFromInternal(total), nil
}

// NewOnlineTuner creates a COLT tuner seeded with the current materialized
// design (Scenario 3). The tuner shares the designer's costing engine.
func (d *Designer) NewOnlineTuner(opts TunerOptions) *Tuner {
	return &Tuner{t: colt.New(d.eng, d.eng.Pin().Base(), opts.internal())}
}

// AdvisePartitions runs only the AutoPart partition advisor on top of the
// current materialized design (existing indexes keep pricing credit).
func (d *Designer) AdvisePartitions(ctx context.Context, w *Workload, opts PartitionOptions) (*PartitionResult, error) {
	iw, v := w.internal(), d.eng.Pin()
	res, err := autopart.New(d.eng).AdviseView(ctx, v, iw, v.Base(), opts.internal())
	if err != nil {
		return nil, err
	}
	return d.partitionResultFromInternal(iw, res), nil
}

// partitionResultFromInternal converts an AutoPart result, rendering
// layouts and computing query rewrites for the advised configuration.
func (d *Designer) partitionResultFromInternal(w *workload.Workload, res *autopart.Result) *PartitionResult {
	out := &PartitionResult{
		BaselineCost: res.BaselineCost,
		NewCost:      res.NewCost,
		PricingCalls: res.PricingCalls,
		cfg:          res.Config,
	}
	for _, tr := range res.Tables {
		tp := TablePartition{Table: tr.Table, CostBefore: tr.CostBefore, CostAfter: tr.CostAfter}
		if tr.Vertical != nil {
			tp.Vertical = tr.Vertical.String()
		}
		if tr.Horizontal != nil {
			tp.Horizontal = tr.Horizontal.String()
		}
		out.Tables = append(out.Tables, tp)
	}
	out.Rewritten = map[string]string{}
	for _, q := range w.Queries {
		if sql, changed := autopart.RewriteQuery(q.Stmt, d.store.Schema, res.Config); changed {
			out.Rewritten[q.ID] = sql
		}
	}
	return out
}
