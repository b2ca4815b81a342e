// Package bench is the deterministic experiment suite behind the committed
// BENCH_*.json baselines. It runs the paper's experiments — INUM costings
// served per optimizer call (E8), CoPhy vs greedy design quality across
// storage budgets (E7), COLT convergence under workload drift (E6),
// interaction-aware schedule quality (E2/E9), and parallel-sweep exactness —
// over a matrix of dataset sizes, seeds, and workload profiles, and emits
// one schema-versioned answer document (BENCH_<label>.json) per run: quality
// and count cells only, a pure function of (spec, seed). It measures no
// wall-clock time; latency claims are made with benchmark/ (BENCHMARK.json)
// and nothing else. The `dbdesigner bench` subcommand is a thin wrapper over
// this package.
package bench

import (
	"cmp"
	"sync"

	"repro/designer"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Env is one cell of the experiment matrix: a generated dataset, a workload
// drawn from one profile, the candidate index set, and the shared costing
// engine with its one pinned view. Building an Env is the expensive part of
// every experiment; one Env serves every experiment of its cell.
type Env struct {
	SizeName string
	Seed     int64
	Profile  string
	NumQ     int
	// Backend is the cost-backend kind the Env's engine prices through
	// ("native" or "calibrated").
	Backend string

	Store *storage.Store
	W     *workload.Workload
	Cands []*catalog.Index
	Eng   *engine.Engine
	// View is the Env engine's one generation, pinned at construction: the
	// Env never reconfigures its engine, so every experiment prices on it.
	View *engine.View

	// backend is the Env's cost backend in the facade's form, which
	// freshFacade opens designers with, and engineBackend the same backend
	// in the engine's, which FreshEngine rebuilds engines with.
	backend       designer.BackendSpec
	engineBackend engine.BackendSpec

	// advised caches the default CoPhy recommendation (used by the
	// interaction and schedule experiments, which analyze an advised set).
	advisedOnce sync.Once
	advised     []*catalog.Index
	advisedErr  error
}

// NewEnv generates the dataset (dataset seed = seed), draws NumQ queries
// from the named workload profile (workload seed = seed+1, so dataset and
// workload randomness stay independent), enumerates candidates, and pins a
// view of the given cost backend (native or calibrated) — the whole
// experiment suite runs unchanged on any backend, which is itself the
// portability claim.
func NewEnv(sizeName string, seed int64, profile string, numQ int, backend designer.BackendSpec) (*Env, error) {
	espec, err := engineBackend(backend)
	if err != nil {
		return nil, err
	}
	size, err := workload.SizeByName(sizeName)
	if err != nil {
		return nil, err
	}
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	store, err := workload.Generate(size, seed)
	if err != nil {
		return nil, err
	}
	w, err := p.Generate(store.Schema, seed+1, numQ)
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewWithBackend(store.Schema, store.Stats, store.MaterializedConfiguration(), espec)
	if err != nil {
		return nil, err
	}
	v := eng.Pin()
	cands := v.Session().GenerateCandidates(w, whatif.DefaultCandidateOptions())
	return &Env{
		SizeName:      sizeName,
		Seed:          seed,
		Profile:       profile,
		NumQ:          numQ,
		Backend:       cmp.Or(backend.Kind, designer.BackendNative),
		Store:         store,
		W:             w,
		Cands:         cands,
		Eng:           eng,
		View:          v,
		backend:       backend,
		engineBackend: espec,
	}, nil
}

// engineBackend resolves a suite backend, native or calibrated, into the
// engine's spec: the calibrated backend's constants — its calibration
// file's, or the built-in profile — or none.
func engineBackend(backend designer.BackendSpec) (engine.BackendSpec, error) {
	switch {
	case backend.Kind != designer.BackendCalibrated:
		return engine.BackendSpec{}, nil
	case backend.CalibrationFile != "":
		cal, err := engine.LoadCalibration(backend.CalibrationFile)
		return engine.BackendSpec{Calibration: cal}, err
	}
	return engine.BackendSpec{Calibration: engine.DefaultCalibration()}, nil
}

// freshFacade generates an unshared copy of the Env's dataset, opens a
// facade designer over it with the Env's backend, and re-parses the Env's
// workload through it (IDs and weights preserved) — for experiments that
// exercise the public v2 pipeline and must not poison the shared engine's
// caches.
func (e *Env) freshFacade() (*designer.Designer, *designer.Workload, error) {
	d, err := designer.OpenSDSS(e.SizeName, e.Seed, designer.WithBackend(e.backend))
	if err != nil {
		return nil, nil, err
	}
	qs := make([]designer.Query, 0, len(e.W.Queries))
	for _, q := range e.W.Queries {
		fq, err := d.ParseQuery(q.ID, q.SQL)
		if err != nil {
			return nil, nil, err
		}
		qs = append(qs, fq.WithWeight(q.Weight))
	}
	fw, err := designer.NewWorkload(qs...)
	return d, fw, err
}

// FreshEngine builds an unshared, cold-cache engine over the Env's dataset
// with the Env's backend (for cold-path measurements like the pipeline
// calls-avoided ratio). Its caller pins it once.
func (e *Env) FreshEngine() *engine.Engine {
	eng, err := engine.NewWithBackend(e.Store.Schema, e.Store.Stats, nil, e.engineBackend)
	if err != nil {
		// The spec already built the Env's own engine once.
		panic(err)
	}
	return eng
}

// Advised returns the default CoPhy recommendation over the Env's workload,
// computed once and shared (the interaction and schedule experiments both
// start from "the advised set").
func (e *Env) Advised() ([]*catalog.Index, error) {
	e.advisedOnce.Do(func() {
		res, err := e.CoPhy(0, 0)
		if err != nil {
			e.advisedErr = err
			return
		}
		e.advised = res.Indexes
	})
	return e.advised, e.advisedErr
}

// CandidateFootprint sums the estimated pages of all candidate indexes —
// the 100% point of the storage-budget axis.
func (e *Env) CandidateFootprint() int64 {
	var total int64
	for _, ix := range e.Cands {
		total += ix.EstimatedPages
	}
	return total
}

// SweepFamily builds n distinct configurations with varied per-table design
// signatures — enough per-config work that a parallel sweep is meaningful.
func (e *Env) SweepFamily(n int) []*catalog.Configuration {
	cfgs := make([]*catalog.Configuration, 0, n)
	for i := 0; i < n; i++ {
		cfg := catalog.NewConfiguration()
		for j, ix := range e.Cands {
			if (i+j)%5 == 0 || (i*j)%7 == 1 {
				cfg = cfg.WithIndex(ix)
			}
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}
