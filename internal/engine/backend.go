// Cost backends — the "portable" pillar of the paper's title. The design
// algorithms (CoPhy, COLT, AutoPart, the interaction analyzer) never talk
// to an optimizer directly: every costing call flows through the engine,
// and the engine delegates to a pluggable CostBackend. Swapping the backend
// swaps the cost model under the whole designer without touching a single
// advisor.
//
// Two backends ship in-tree:
//
//   - native: the built-in optimizer + INUM cache pipeline (the default).
//   - calibrated: the same analytical machinery running on PostgreSQL-style
//     cost constants loaded from a JSON calibration file — the stand-in for
//     "another engine's economy" (SSD defaults built in).
//
// A live PostgreSQL server (package livedb) reaches the engine as a
// calibrated backend whose constants are fitted from the server's planner
// settings; a recorded wire trace replays that fit offline.
//
// Backend state is per view: every Pin and PinBackend builds a fresh backend
// instance (own INUM cache) over its generation's environment, so a view is
// only ever served plan costs it cached itself, and everything it cached is
// released with it. Only the engine's work counters outlive a view.
package engine

import (
	"fmt"

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
)

// BackendKinds lists the selectable backend kinds in canonical order.
func BackendKinds() []string { return []string{BackendNative, BackendCalibrated} }

// CostBackend is one pluggable what-if costing implementation. The engine
// resolves nil configurations to the generation's base before calling a
// backend, so implementations always see a concrete configuration.
//
// Backends are built per pinned view and dropped with it; they may cache
// freely (the native backend's INUM cache) without any cross-view,
// cross-generation or cross-backend aliasing concern. They count their work
// into the engine's counters.
//
// The cached path is INUM's: a sweep resolves its queries to their entries
// once (Entries), then prices every cell from an entry's pricing table, by
// configuration (inum.Cache.CostFor) or by a set of numbered structures
// (inum.Cache.CostOf).
type CostBackend interface {
	// Kind identifies the backend ("native", "calibrated").
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
	// Entries resolves the queries against the backend's INUM cache,
	// building any entry it lacks, and returns the cache with the entries.
	Entries(queries []workload.Query) (*inum.Cache, []*inum.CachedQuery, error)
	// StmtCost prices a statement with the backend's reference model (the
	// full optimizer), bypassing the cached path.
	StmtCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error)
}

// BackendInfo is the descriptive form of the active backend.
type BackendInfo struct {
	Kind        string
	Description string
}

// BackendSpec selects and parameterizes the cost backend an engine builds
// for every generation. The zero value means the native backend.
type BackendSpec struct {
	// Kind is "native" (default when empty) or "calibrated".
	Kind string
	// Calibration supplies the calibrated backend's cost constants;
	// nil means DefaultCalibration().
	Calibration *Calibration
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
// calibration attached to a native backend is a misconfiguration the caller
// must hear about, not a silently different cost model.
func (spec BackendSpec) Validate() error {
	switch spec.kind() {
	case BackendNative:
		if spec.Calibration != nil {
			return fmt.Errorf("engine: calibration given but backend is %q (want calibrated)", spec.kind())
		}
		return nil
	case BackendCalibrated:
		if spec.Calibration != nil {
			return spec.Calibration.Validate()
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
// constants, the native one keeps the native env.
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
	b := &envBackend{env: env, cache: inum.New(env, n), online: online}
	if spec.kind() == BackendCalibrated {
		b.cal = spec.calibration()
	}
	return b
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

func (b *envBackend) Entries(queries []workload.Query) (*inum.Cache, []*inum.CachedQuery, error) {
	entries := make([]*inum.CachedQuery, len(queries))
	for i, q := range queries {
		cq, err := b.entry(q.Stmt)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		entries[i] = cq
	}
	return b.cache, entries, nil
}

func (b *envBackend) StmtCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	return b.env.CostUnder(stmt, cfg)
}
