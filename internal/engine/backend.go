// Cost backends — the "portable" pillar of the paper's title. The design
// algorithms (CoPhy, COLT, AutoPart, the interaction analyzer) never talk
// to an optimizer directly: every costing call flows through the engine,
// and the engine delegates to a pluggable CostBackend. Swapping the backend
// swaps the cost model under the whole designer without touching a single
// advisor.
//
// Three backends ship in-tree:
//
//   - native: the built-in optimizer + INUM cache pipeline (the default).
//   - calibrated: the same analytical machinery running on PostgreSQL-style
//     cost constants loaded from a JSON calibration file — the stand-in for
//     "another engine's economy" (SSD defaults built in).
//   - replay: serves recorded costing calls from a trace, enabling
//     trace-driven portability tests without any live engine. Record mode
//     (BackendSpec.Recorder) wraps any backend and dumps its calls.
//
// Backend state is per view: every Pin and PinBackend builds a fresh backend
// instance (own INUM cache) over its generation's environment, so a view is
// only ever served plan costs it cached itself, and everything it cached is
// released with it. Only the engine's work counters outlive a view.
package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// Backend kinds.
const (
	BackendNative     = "native"
	BackendCalibrated = "calibrated"
	BackendReplay     = "replay"
)

// BackendKinds lists the selectable backend kinds in canonical order.
func BackendKinds() []string { return []string{BackendNative, BackendCalibrated, BackendReplay} }

// CostBackend is one pluggable what-if costing implementation. The engine
// resolves nil configurations to the generation's base before calling a
// backend, so implementations always see a concrete configuration.
//
// Backends are built per pinned view and dropped with it; they may cache
// freely (the native backend's INUM cache) without any cross-view,
// cross-generation or cross-backend aliasing concern. They count their work
// into the engine's counters.
//
// Cached-path pricing is staged, because a sweep prices |queries| ×
// |configurations| cells and most of a cell's work belongs to its row or
// its column: Pricer does the per-query work once per sweep call (the INUM
// entry lookup), the Pricer it returns does the per-configuration work once
// per configuration (INUM's digest, the configuration signature), and only
// what is left runs per cell. A statement's trace key is its Key, rendered
// once in the statement's life.
type CostBackend interface {
	// Kind identifies the backend ("native", "calibrated", "replay").
	Kind() string
	// Describe renders the backend's parameters for humans (Describe
	// output, serve /schema).
	Describe() string
	// Params exposes the cost constants the backend prices with; consumers
	// like the materialization scheduler use them for build-cost models.
	Params() optimizer.CostParams
	// Prepare builds the statement's entry of the kind its view prices
	// from, which depends on the statement (its Key) and on nothing the
	// caller holds.
	Prepare(stmt *sqlparse.SelectStmt) error
	// Pricer resolves the queries against the backend's cached
	// (INUM-style) path, building any entry it lacks, and returns the
	// function that prices them. What Pricer resolved lives as long as the
	// returned function and no longer.
	Pricer(queries []workload.Query) (Pricer, error)
	// StmtCost prices a statement with the backend's reference model (the
	// full optimizer for analytical backends), bypassing the cached path.
	StmtCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error)
}

// Pricer takes one configuration in — digesting it once, however many
// queries are then priced under it — and returns its QueryPricer. Both are
// safe for concurrent use.
type Pricer func(cfg *catalog.Configuration) QueryPricer

// QueryPricer prices queries[i] of the slice its Pricer was made for, under
// the configuration it was made for.
type QueryPricer func(i int) (float64, error)

// BackendInfo is the descriptive form of the active backend.
type BackendInfo struct {
	Kind        string
	Description string
}

// BackendSpec selects and parameterizes the cost backend an engine builds
// for every generation. The zero value means the native backend.
type BackendSpec struct {
	// Kind is "native" (default when empty), "calibrated", or "replay".
	Kind string
	// Calibration supplies the calibrated backend's cost constants;
	// nil means DefaultCalibration().
	Calibration *Calibration
	// Trace backs the replay backend. Required when Kind is "replay".
	Trace *Trace
	// Recorder, when set, wraps the backend so every costing call is
	// captured for a later replay. Works with any kind (recording a replay
	// re-dumps the served calls).
	Recorder *Recorder
}

// kind resolves the spec's kind with the native default.
func (spec BackendSpec) kind() string {
	if spec.Kind == "" {
		return BackendNative
	}
	return spec.Kind
}

// Validate checks the spec without building anything. Parameters that the
// selected kind would ignore are rejected rather than dropped: a
// calibration attached to a native backend (or a trace attached to an
// analytical one) is a misconfiguration the caller must hear about, not a
// silently different cost model.
func (spec BackendSpec) Validate() error {
	switch spec.kind() {
	case BackendNative:
		if spec.Calibration != nil {
			return fmt.Errorf("engine: calibration given but backend is %q (want calibrated)", spec.kind())
		}
		if spec.Trace != nil {
			return fmt.Errorf("engine: trace given but backend is %q (want replay)", spec.kind())
		}
		return nil
	case BackendCalibrated:
		if spec.Trace != nil {
			return fmt.Errorf("engine: trace given but backend is %q (want replay)", spec.kind())
		}
		if spec.Calibration != nil {
			return spec.Calibration.Validate()
		}
		return nil
	case BackendReplay:
		if spec.Calibration != nil {
			return fmt.Errorf("engine: calibration given but backend is %q (want calibrated)", spec.kind())
		}
		if spec.Trace == nil {
			return fmt.Errorf("engine: replay backend needs a trace")
		}
		return nil
	default:
		return fmt.Errorf("engine: unknown backend kind %q (have %v)", spec.Kind, BackendKinds())
	}
}

// calibration resolves the calibrated backend's constants with the default.
func (spec BackendSpec) calibration() *Calibration {
	if spec.Calibration == nil {
		return DefaultCalibration()
	}
	return spec.Calibration
}

// env derives the environment a generation plans against under the spec
// (Optimize/Explain, what-if sessions) from its native one (schema + stats +
// base config + join switches): the calibrated backend substitutes its cost
// constants, the others keep the native env — under replay, plan rendering
// stays available even when costing is trace-served.
func (spec BackendSpec) env(native *optimizer.Env) *optimizer.Env {
	if spec.kind() != BackendCalibrated {
		return native
	}
	cenv := *native
	cenv.Params = spec.calibration().Params()
	return &cenv
}

// backend builds a fresh backend, with empty caches, over the env spec.env
// derived, counting its work into n; online says which INUM entries it
// prices from (envBackend.entry). The spec has been validated.
func (spec BackendSpec) backend(env *optimizer.Env, n *inum.Counters, online bool) CostBackend {
	var backend CostBackend
	switch spec.kind() {
	case BackendNative:
		backend = &envBackend{env: env, cache: inum.New(env, n), online: online}
	case BackendCalibrated:
		backend = &envBackend{cal: spec.calibration(), env: env, cache: inum.New(env, n), online: online}
	case BackendReplay:
		backend = &replayBackend{trace: spec.Trace, params: env.Params, served: &n.CachedCostings}
	}
	if spec.Recorder != nil {
		backend = &recordingBackend{inner: backend, rec: spec.Recorder}
	}
	return backend
}

// ---------------------------------------------------------------------------
// envBackend: the optimizer-environment-backed backends (native, calibrated).
// ---------------------------------------------------------------------------

// envBackend prices through an optimizer environment and an INUM cache —
// the pipeline PRs 1–3 built, now one implementation behind the seam. The
// native and calibrated backends differ only in the environment's cost
// constants.
type envBackend struct {
	// cal holds the calibrated backend's constants; nil is the native one.
	cal   *Calibration
	env   *optimizer.Env
	cache *inum.Cache
	// online marks an online view's backend (Engine.PinOnline).
	online bool
}

func (b *envBackend) Kind() string {
	if b.cal == nil {
		return BackendNative
	}
	return BackendCalibrated
}

func (b *envBackend) Describe() string {
	if b.cal == nil {
		return "built-in optimizer + INUM cache (default cost constants)"
	}
	return fmt.Sprintf("analytical model calibrated as %q (seq=%g random=%g cpu_tuple=%g)",
		b.cal.Name, b.cal.SeqPageCost, b.cal.RandomPageCost, b.cal.CPUTupleCost)
}

func (b *envBackend) Params() optimizer.CostParams { return b.env.Params }

// entry returns the statement's INUM entry of the kind the view prices
// from, building it when the cache lacks it: the complete entry for a
// design view, the on-demand one (one optimization, the no-order template)
// for an online view, whose question prices a streamed statement once or
// twice. The on-demand entry is kept by measurement (package inum): order
// templates built lazily read the complete entry exactly but cost more
// optimizations than they save.
func (b *envBackend) entry(stmt *sqlparse.SelectStmt) (*inum.CachedQuery, error) {
	if b.online {
		return b.cache.OnDemand(stmt)
	}
	return b.cache.Prepare("", stmt, nil)
}

func (b *envBackend) Prepare(stmt *sqlparse.SelectStmt) error {
	_, err := b.entry(stmt)
	return err
}

func (b *envBackend) Pricer(queries []workload.Query) (Pricer, error) {
	entries := make([]*inum.CachedQuery, len(queries))
	for i, q := range queries {
		cq, err := b.entry(q.Stmt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		entries[i] = cq
	}
	if len(entries) == 1 {
		// One query sees the slices of its own tables and nothing else:
		// cutting them out of cfg directly is cheaper than a whole digest.
		return func(cfg *catalog.Configuration) QueryPricer {
			return func(int) (float64, error) { return b.cache.CostFor(entries[0], cfg) }
		}, nil
	}
	return func(cfg *catalog.Configuration) QueryPricer {
		d := inum.DigestOf(cfg)
		return func(i int) (float64, error) { return b.cache.CostUnder(entries[i], d), nil }
	}, nil
}

func (b *envBackend) StmtCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	return b.env.CostUnder(stmt, cfg)
}

// ---------------------------------------------------------------------------
// replayBackend: trace-served costing, no live optimizer needed.
// ---------------------------------------------------------------------------

// replayBackend counts every served call as a cached costing (no full
// optimizations ever happen under replay).
type replayBackend struct {
	trace  *Trace
	params optimizer.CostParams
	served *atomic.Int64
}

func (b *replayBackend) Kind() string { return BackendReplay }
func (b *replayBackend) Describe() string {
	return fmt.Sprintf("replaying %d recorded %s calls", b.trace.Len(), b.trace.Backend)
}
func (b *replayBackend) Params() optimizer.CostParams { return b.params }

// Prepare is a no-op: the trace holds finished costs, not plan templates.
func (b *replayBackend) Prepare(*sqlparse.SelectStmt) error { return nil }

func (b *replayBackend) Pricer(queries []workload.Query) (Pricer, error) {
	return func(cfg *catalog.Configuration) QueryPricer {
		sig := cfg.Signature()
		return func(i int) (float64, error) { return b.lookup(opQuery, queries[i].Stmt.Key(), sig) }
	}, nil
}

func (b *replayBackend) StmtCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	return b.lookup(opStmt, stmt.Key(), cfg.Signature())
}

func (b *replayBackend) lookup(op, sql, sig string) (float64, error) {
	if cost, ok := b.trace.lookup(op, sql, sig); ok {
		b.served.Add(1)
		return cost, nil
	}
	return 0, fmt.Errorf("engine: replay: no recorded %s cost for %q under config %q — re-record the trace with this workload and configuration space", op, sql, sig)
}

// ---------------------------------------------------------------------------
// recordingBackend: transparent call capture around any backend.
// ---------------------------------------------------------------------------

type recordingBackend struct {
	inner CostBackend
	rec   *Recorder
}

func (b *recordingBackend) Kind() string                 { return b.inner.Kind() }
func (b *recordingBackend) Describe() string             { return b.inner.Describe() + " [recording]" }
func (b *recordingBackend) Params() optimizer.CostParams { return b.inner.Params() }

func (b *recordingBackend) Prepare(stmt *sqlparse.SelectStmt) error {
	return b.inner.Prepare(stmt)
}

func (b *recordingBackend) Pricer(queries []workload.Query) (Pricer, error) {
	inner, err := b.inner.Pricer(queries)
	if err != nil {
		return nil, err
	}
	return func(cfg *catalog.Configuration) QueryPricer {
		price, sig := inner(cfg), cfg.Signature()
		return func(i int) (float64, error) {
			cost, err := price(i)
			if err == nil {
				b.rec.record(b.inner.Kind(), opQuery, queries[i].Stmt.Key(), sig, cost)
			}
			return cost, err
		}
	}, nil
}

func (b *recordingBackend) StmtCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	cost, err := b.inner.StmtCost(stmt, cfg)
	if err == nil {
		b.rec.record(b.inner.Kind(), opStmt, stmt.Key(), cfg.Signature(), cost)
	}
	return cost, err
}
