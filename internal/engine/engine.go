// Package engine is the single what-if costing layer every designer
// component plans through. It owns the optimizer environment (schema +
// statistics + cost parameters) and the what-if session (§3.1) as
// immutable, versioned generations: when the physical design changes
// (indexes are materialized, statistics are refreshed), the engine builds
// both afresh and bumps the version. The INUM cost cache (§3.2.1) is not
// part of a generation; it belongs to the question that fills it.
//
// The package has two types with two jobs. *Engine is the lifecycle object:
// construct it, Pin a generation, reconfigure it through the two doors the
// product uses (SetBaseConfig after Materialize, SetStats after Analyze),
// bound its worker pool, read its counters. *View is one pinned generation
// plus the INUM cache built for it, and the only what-if interface:
// sizing, candidates, prepare, query and workload costs, plans, sweeps and
// benefit reports are all methods on a view. A question — one advisor run,
// one design session, one observation, one autopilot epoch, one facade call
// — pins once and passes the view down, so it is answered on one generation
// by construction; there is no call that pins on the caller's behalf. Every
// pin builds a fresh INUM cache, so a question only ever reads entries it
// built itself, and they are released when its view is dropped. Which
// entries a view prices from is fixed when it is pinned: a design view
// (Pin, PinBackend) reads each query's complete entry, an online view
// (PinOnline: a COLT observation, a stream's static baseline) its on-demand
// one. Every door builds the entries it lacks, so within a view an answer
// does not depend on the calls made before it, and no caller prepares.
//
// A view prices two ways, both under its generation's cost constants: from
// its INUM entries (QueryCost, WorkloadCost, the sweeps, Pricing), or by a
// full plan search, the generation environment's CostUnder (FullCost,
// Evaluate, EvaluateDelta, EvaluateSteered). The constants are the cost
// backend (backend.go) — native or calibrated (JSON-loaded or fitted) —
// which is what makes the designer portable across cost models. The
// backend kind is chosen when the engine is opened (NewWithBackend) or per
// pinned view (PinBackend).
//
// Sweeps (SweepConfigs, Pricing's Sweep and SweepQuery, Evaluate,
// EvaluateDelta) price many hypothetical designs in parallel over a bounded
// worker pool — the hot path of CoPhy's atom enumeration, the interaction
// analyzer's lattice walks, and greedy candidate selection. A concurrent
// reconfiguration never tears a sweep in half, and results are
// deterministic: a parallel sweep returns bit-for-bit the costs a serial
// loop would.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// snapshot is one immutable generation of the planning state. A view holds
// one; the engine never mutates a published snapshot, only swaps in a new
// one.
type snapshot struct {
	version uint64
	base    *catalog.Configuration
	stats   *stats.Catalog
	// env is the generation's planning environment, carrying the backend's
	// cost constants.
	env     *optimizer.Env
	session *whatif.Session
}

// Engine is the shared, concurrency-safe what-if costing handle.
type Engine struct {
	schema *catalog.Schema

	mu   sync.RWMutex
	snap *snapshot
	spec BackendSpec

	// workers bounds sweep parallelism; 0 means GOMAXPROCS.
	workers int

	// counters tallies the costing work of every view the engine pins,
	// over its whole life, and planSearches the full plan searches those
	// views run outside INUM (search).
	counters     inum.Counters
	planSearches atomic.Int64
}

// New creates an engine over a schema/statistics snapshot and a base
// (currently materialized) configuration, costing through the native
// backend. base may be nil for "no physical design".
func New(schema *catalog.Schema, st *stats.Catalog, base *catalog.Configuration) *Engine {
	e, err := NewWithBackend(schema, st, base, BackendSpec{})
	if err != nil {
		// The zero spec is the native backend, which cannot fail to build.
		panic(err)
	}
	return e
}

// NewWithBackend creates an engine costing through the given backend spec.
func NewWithBackend(schema *catalog.Schema, st *stats.Catalog, base *catalog.Configuration, spec BackendSpec) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{schema: schema, spec: spec}
	e.snap = e.build(st, base, spec, 1)
	return e, nil
}

// build assembles a generation of the planning state under a validated
// spec.
func (e *Engine) build(st *stats.Catalog, base *catalog.Configuration, spec BackendSpec, version uint64) *snapshot {
	if base == nil {
		base = catalog.NewConfiguration()
	}
	env := spec.env(optimizer.NewEnv(e.schema, st, base))
	return &snapshot{
		version: version,
		base:    base,
		stats:   st,
		env:     env,
		session: whatif.NewSessionFromEnv(env, base),
	}
}

// rebuild swaps in the next generation; callers hold e.mu.
func (e *Engine) rebuild(st *stats.Catalog, base *catalog.Configuration) {
	e.snap = e.build(st, base, e.spec, e.snap.version+1)
}

// snapshot returns the current generation under a read lock.
func (e *Engine) snapshot() *snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snap
}

// View is one pinned configuration generation of the engine with the INUM
// cache built for it, and the one what-if interface: every costing,
// sizing and planning call is a method on a view, so a question that spans
// many of them (base costs, many sweeps) is answered on one generation —
// environment, session, statistics and base design — even if the engine is
// reconfigured concurrently. The cache and its entries are the view's own:
// no other view reads them, and they go when the view does. The caller
// pins once per question and passes the view down; the next question picks
// up the new generation and starts from an empty cache.
type View struct {
	e     *Engine
	s     *snapshot
	spec  BackendSpec
	cache *inum.Cache
	// door finds or builds a statement's entry in the cache, of the kind
	// the view prices from: Cache.Prepare's complete entry for a design
	// view, Cache.OnDemand's (one optimization, the no-order template) for
	// an online view, whose question prices a streamed statement once or
	// twice. The on-demand entry is kept by measurement (package inum):
	// order templates built lazily read the complete entry exactly but cost
	// more optimizations than they save. Both doors are plain functions, so
	// pinning a view makes no closure.
	door func(*inum.Cache, *sqlparse.SelectStmt) (*inum.CachedQuery, error)
}

// Pin captures the current generation and builds a fresh INUM cache over it:
// a design view, pricing every query from its complete INUM entry. The
// returned view is unaffected by subsequent SetBaseConfig/SetStats calls.
func (e *Engine) Pin() *View { return e.view(e.snapshot(), e.spec, false) }

// PinOnline is Pin for a question that prices each statement once or twice
// — one COLT observation, a stream's static baseline: the view prices every
// query from its on-demand INUM entry, one full optimization and the
// no-order template. A view asked one statement, as an observation is, pays
// for that statement alone: its cache renders no key and makes no slot map
// (package inum), and pinning it makes no closure. A stream's baseline,
// which prices many statements on one view, finds them by key as a design
// view does.
func (e *Engine) PinOnline() *View { return e.view(e.snapshot(), e.spec, true) }

// PinBackend is Pin with a different cost backend, built against the same
// base configuration and statistics — the per-session backend surface: one
// HTTP design session can price through the calibrated model while the
// engine (and every other consumer) stays on its own backend.
func (e *Engine) PinBackend(spec BackendSpec) (*View, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cur := e.snapshot()
	return e.view(e.build(cur.stats, cur.base, spec, cur.version), spec, false), nil
}

// view builds the INUM cache a pinned generation prices through.
func (e *Engine) view(s *snapshot, spec BackendSpec, online bool) *View {
	v := &View{e: e, s: s, spec: spec, cache: inum.New(s.env, &e.counters), door: prepare}
	if online {
		v.door = (*inum.Cache).OnDemand
	}
	return v
}

// prepare is a design view's door: the statement's complete entry.
func prepare(c *inum.Cache, stmt *sqlparse.SelectStmt) (*inum.CachedQuery, error) {
	return c.Prepare("", stmt, nil)
}

// entry returns the statement's entry of the kind the view prices from.
func (v *View) entry(stmt *sqlparse.SelectStmt) (*inum.CachedQuery, error) {
	return v.door(v.cache, stmt)
}

// Version reports the pinned generation. It increments every time the base
// configuration or the statistics change.
func (v *View) Version() uint64 { return v.s.version }

// Base returns the pinned base configuration: the design materialized when
// the generation was built.
func (v *View) Base() *catalog.Configuration { return v.s.base }

// Session returns the pinned generation's what-if session: hypothetical
// structures sized from the generation's statistics, candidate enumeration.
func (v *View) Session() *whatif.Session { return v.s.session }

// Stats returns the pinned generation's statistics catalog.
func (v *View) Stats() *stats.Catalog { return v.s.stats }

// Params returns the pinned generation's cost parameters (the backend's).
func (v *View) Params() optimizer.CostParams { return v.s.env.Params }

// Backend describes the pinned generation's cost backend.
func (v *View) Backend() BackendInfo { return v.spec.info() }

// SessionWith returns a throwaway what-if session over the pinned base
// configuration, statistics, and backend cost constants with the given
// optimizer switches applied — per-session join steering that cannot leak
// into other consumers' costing.
func (v *View) SessionWith(opts optimizer.Options) *whatif.Session {
	return whatif.NewSessionFromEnv(v.s.env.WithOptions(opts), v.s.base)
}

// Schema exposes the logical schema.
func (e *Engine) Schema() *catalog.Schema { return e.schema }

// Env exposes the current optimizer environment (base configuration,
// backend cost constants).
func (e *Engine) Env() *optimizer.Env { return e.snapshot().env }

// Base returns the current base (materialized) configuration.
func (e *Engine) Base() *catalog.Configuration { return e.snapshot().base }

// SetWorkers bounds sweep parallelism (0 restores the GOMAXPROCS default).
func (e *Engine) SetWorkers(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 {
		n = 0
	}
	e.workers = n
}

// Workers reports the effective sweep pool width: the SetWorkers bound, or
// GOMAXPROCS when unbounded. Bench result metadata records this.
func (e *Engine) Workers() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// SetBaseConfig swaps the base configuration and starts a new generation:
// environment and what-if session. Views pinned after it price on the new
// generation; views pinned before keep theirs. Designer.Materialize calls
// this after physically building indexes.
func (e *Engine) SetBaseConfig(base *catalog.Configuration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebuild(e.snap.stats, base)
}

// SetStats swaps the statistics catalog (after a re-ANALYZE) together with
// the base configuration and invalidates the generation. Old generations
// keep the old catalog: statistics are copy-on-write, so pinned views stay
// internally consistent while new work sees the fresh numbers.
func (e *Engine) SetStats(st *stats.Catalog, base *catalog.Configuration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebuild(st, base)
}

// resolve substitutes the snapshot base configuration for nil.
func (s *snapshot) resolve(cfg *catalog.Configuration) *catalog.Configuration {
	if cfg != nil {
		return cfg
	}
	return s.base
}

// Prepare builds, in parallel over the sweep pool, the entry every workload
// query is priced from on this view. Every door builds what it lacks, and
// the workload doors build on the pool this way, so no answer depends on
// Prepare: it is a pre-warm. What is built for a query depends on its
// statement alone; the third argument is ignored and is still there only
// because the benchmark module, which no code change may edit, passes one
// (ROADMAP 6(g)). A statement whose text the view already holds, under
// any ID or parse, costs one lookup and builds nothing. A query's ID only
// labels its error. A cancelled context aborts between queries.
func (v *View) Prepare(ctx context.Context, w *workload.Workload, _ []*catalog.Index) error {
	_, err := v.entries(ctx, w)
	return err
}

// QueryCost prices one query under a configuration from its INUM entry
// (nil = the pinned base configuration).
func (v *View) QueryCost(q workload.Query, cfg *catalog.Configuration) (float64, error) {
	cq, err := v.entry(q.Stmt)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", q.ID, err)
	}
	return v.cache.CostFor(cq, v.s.resolve(cfg))
}

// WorkloadCost sums weighted query costs from their INUM entries under a
// configuration (nil = base) against the pinned generation.
func (v *View) WorkloadCost(ctx context.Context, w *workload.Workload, cfg *catalog.Configuration) (float64, error) {
	entries, err := v.entries(ctx, w)
	if err != nil {
		return 0, err
	}
	return v.workloadCost(w, entries, v.s.resolve(cfg)), nil
}

// entries resolves the workload's queries to their entries in one pass on
// the sweep pool, building the ones the view lacks, once for however many
// configurations the caller then prices.
func (v *View) entries(ctx context.Context, w *workload.Workload) ([]*inum.CachedQuery, error) {
	entries := make([]*inum.CachedQuery, len(w.Queries))
	err := v.e.sweep(ctx, len(w.Queries), func(i int) error {
		cq, err := v.entry(w.Queries[i].Stmt)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", w.Queries[i].ID, err)
		}
		entries[i] = cq
		return nil
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// workloadCost sums the weighted costs of w's queries, whose entries these
// are, under one configuration.
func (v *View) workloadCost(w *workload.Workload, entries []*inum.CachedQuery, cfg *catalog.Configuration) float64 {
	var total float64
	for i, q := range w.Queries {
		c, _ := v.cache.CostFor(entries[i], cfg)
		total += c * q.Weight
	}
	return total
}

// FullCost prices a statement with a full plan search under the backend's
// cost constants against the pinned generation, bypassing the cached path —
// the E8 comparison baseline and the exactness fallback.
func (v *View) FullCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	return v.search(v.s.env, stmt, v.s.resolve(cfg))
}

// search is one full plan search of the statement under cfg in env, counted
// into the engine's plan searches: every plan search a view runs outside
// INUM goes through it.
func (v *View) search(env *optimizer.Env, stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	v.e.planSearches.Add(1)
	return env.CostUnder(stmt, cfg)
}

// Optimize plans a statement under a configuration (nil = base) and returns
// the full plan tree. Planning always runs through the generation's
// optimizer environment.
func (v *View) Optimize(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (*optimizer.Plan, error) {
	return v.s.env.WithConfig(v.s.resolve(cfg)).Optimize(stmt)
}

// CacheStats reports the full optimizations and cached costings of every
// view the engine has pinned, over its whole life (the E8 telemetry). The
// counts only rise; a caller measuring one question reads the difference.
func (e *Engine) CacheStats() (fullOpts, cachedCostings int64) {
	return e.counters.FullOptimizations.Load(), e.counters.CachedCostings.Load()
}

// PlanSearches reports the full plan searches every view the engine has
// pinned ran outside INUM — FullCost, Evaluate, EvaluateSteered and
// EvaluateDelta's recosts — over its whole life. Like CacheStats, the
// count only rises.
func (e *Engine) PlanSearches() int64 { return e.planSearches.Load() }

// workerCount resolves the sweep pool size for n jobs.
func (e *Engine) workerCount(n int) int {
	e.mu.RLock()
	workers := e.workers
	e.mu.RUnlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
