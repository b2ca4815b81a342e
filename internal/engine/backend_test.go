package engine_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// calibrated is the backend of the built-in calibration profile.
var calibrated = engine.BackendSpec{Calibration: engine.DefaultCalibration()}

// newBackendFixture builds a dataset + workload and an engine with the
// given backend spec.
func newBackendFixture(t *testing.T, spec engine.BackendSpec) *fixture {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewWithBackend(store.Schema, store.Stats, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewWorkload(store.Schema, 42, 12)
	if err != nil {
		t.Fatal(err)
	}
	v := eng.Pin()
	cands := v.Session().GenerateCandidates(w, candOpts())
	if err := v.Prepare(context.Background(), w, cands); err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, v: v, w: w, cands: cands}
}

// indexProbe returns a selective range query plus a configuration holding a
// matching index — a plan where random-page costs matter, so native and
// calibrated backends must disagree on the absolute cost. (Seq-scan-only
// plans price identically under both: seq_page_cost and the CPU constants
// are shared between the default calibration and the native model.)
func indexProbe(t *testing.T, f *fixture) (workload.Query, *catalog.Configuration) {
	t.Helper()
	ix, err := f.v.Session().HypotheticalIndex("photoobj", "psfmag_r")
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT objid FROM photoobj WHERE psfmag_r < 14"
	stmt, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(stmt, f.eng.Schema()); err != nil {
		t.Fatal(err)
	}
	q := workload.Query{ID: "probe", SQL: sql, Weight: 1, Stmt: stmt}
	return q, catalog.NewConfiguration().WithIndex(ix)
}

// TestCalibratedBackendDisagreesOnAbsoluteCosts is the premise of the
// portability experiment: the calibrated backend prices the same designs
// with a different economy, so absolute costs must differ from native on
// index-bearing plans while staying positive and finite.
func TestCalibratedBackendDisagreesOnAbsoluteCosts(t *testing.T) {
	native := newFixture(t)
	calib := newBackendFixture(t, calibrated)

	if got := calib.v.Backend(); got.Calibration == nil {
		t.Fatalf("backend = %+v", got)
	}
	q, cfg := indexProbe(t, native)
	nc, err := native.v.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := calib.v.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nc <= 0 || cc <= 0 {
		t.Fatalf("non-positive cost: native=%v calibrated=%v", nc, cc)
	}
	if nc == cc {
		t.Fatalf("calibrated backend returned the native cost %v for an index scan — the calibration is not applied", nc)
	}
	// Every query stays priceable under both backends.
	for _, wq := range native.w.Queries {
		if _, err := calib.v.QueryCost(wq, nil); err != nil {
			t.Fatalf("%s under calibrated: %v", wq.ID, err)
		}
	}
}

// TestSetBackendRejectsInvalidSpec: a backend is set when the engine is
// opened (NewWithBackend) or per pinned view (PinBackend), and both doors
// refuse a calibration that cannot price without touching the working
// engine. (A spec is its calibration or none, so there is no kind to get
// wrong; the facade refuses unknown kinds and stray parameters.)
func TestSetBackendRejectsInvalidSpec(t *testing.T) {
	f := newFixture(t)
	for _, bad := range []struct {
		what string
		spec engine.BackendSpec
	}{
		{"zero-valued calibration", engine.BackendSpec{Calibration: &engine.Calibration{Name: "zero"}}},
		{"non-finite calibration", engine.BackendSpec{Calibration: func() *engine.Calibration {
			c := engine.DefaultCalibration()
			c.RandomPageCost = math.NaN()
			return c
		}()}},
	} {
		if _, err := f.eng.PinBackend(bad.spec); err == nil {
			t.Errorf("PinBackend: %s accepted", bad.what)
		}
		if _, err := engine.NewWithBackend(f.eng.Schema(), f.v.Stats(), nil, bad.spec); err == nil {
			t.Errorf("NewWithBackend: %s accepted", bad.what)
		}
	}
	if f.eng.Pin().Version() != f.v.Version() {
		t.Fatal("a refused spec bumped the generation")
	}
}

// TestPinBackendIsolated checks the per-session backend surface: a
// calibrated view prices with calibrated constants while the engine — and
// views pinned normally — stay native, the engine version is untouched, and
// the derived view keeps its backend when the engine is reconfigured.
func TestPinBackendIsolated(t *testing.T) {
	f := newFixture(t)
	q, cfg := indexProbe(t, f)

	native, err := f.v.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := f.eng.PinBackend(calibrated)
	if err != nil {
		t.Fatal(err)
	}
	calib, err := cv.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calib == native {
		t.Fatalf("per-session calibrated view returned the native cost %v", calib)
	}
	fresh := f.eng.Pin()
	if fresh.Version() != f.v.Version() {
		t.Fatal("PinBackend bumped the engine generation")
	}
	if got := fresh.Backend(); got.Calibration != nil {
		t.Fatalf("PinBackend leaked into the engine: %+v", got)
	}
	again, err := fresh.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != native {
		t.Fatalf("engine costing changed after PinBackend: %v != %v", again, native)
	}

	// The plan-search doors price under the view's own constants too: each
	// equals, bit for bit, the same door on an engine opened calibrated, and
	// differs from the native view's.
	opened := newBackendFixture(t, calibrated)
	want, got, nat := planDoors(t, opened.v, f, q, cfg), planDoors(t, cv, f, q, cfg), planDoors(t, f.v, f, q, cfg)
	for d, door := range want {
		for i := range door.costs {
			if math.Float64bits(got[d].costs[i]) != math.Float64bits(door.costs[i]) {
				t.Fatalf("%s reading %d: the PinBackend view reads %v, a calibrated engine %v", door.name, i, got[d].costs[i], door.costs[i])
			}
		}
		if slices.Equal(got[d].costs, nat[d].costs) {
			t.Errorf("%s: the calibrated view reads the native view's %v", door.name, got[d].costs)
		}
	}

	f.eng.SetBaseConfig(cfg)
	kept, err := cv.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kept != calib || cv.Backend() != calibrated || cv.Version() != f.v.Version() {
		t.Fatalf("derived view moved with the engine: cost %v (was %v), backend %+v, version %d",
			kept, calib, cv.Backend(), cv.Version())
	}
}

// door is what one of a view's plan-search doors reads.
type door struct {
	name  string
	costs []float64
}

// planDoors reads v's plan-search doors on the fixture's workload plus the
// probe query: FullCost of the probe, Evaluate, EvaluateDelta cold and
// then one delta that adds a covering index for the probe, and the cost
// constants.
func planDoors(t *testing.T, v *engine.View, f *fixture, q workload.Query, cfg *catalog.Configuration) []door {
	t.Helper()
	ctx := context.Background()
	w := &workload.Workload{Queries: append(slices.Clone(f.w.Queries), q)}
	covering, err := f.v.Session().HypotheticalIndex("photoobj", "psfmag_r", "objid")
	if err != nil {
		t.Fatal(err)
	}
	first, second := cfg, cfg.WithIndex(covering)
	full, err := v.FullCost(q.Stmt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(r *whatif.Report) []float64 {
		return append(append(slices.Clone(r.Base), r.New...), r.BaseTotal, r.NewTotal)
	}
	ev, err := v.Evaluate(ctx, w, second)
	if err != nil {
		t.Fatal(err)
	}
	cold, st, err := v.EvaluateDelta(ctx, w, first, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta, next, err := v.EvaluateDelta(ctx, w, second, st)
	if err != nil {
		t.Fatal(err)
	}
	if next.Recosted == 0 || next.Reused == 0 {
		t.Fatalf("the delta recosted %d queries and reused %d: it shows neither path", next.Recosted, next.Reused)
	}
	p := v.Params()
	return []door{
		{"FullCost", []float64{full}},
		{"Evaluate", rows(ev)},
		{"EvaluateDelta cold", rows(cold)},
		{"EvaluateDelta delta", rows(delta)},
		{"Params", []float64{p.SeqPageCost, p.RandomPageCost, p.CPUTupleCost, p.CPUIndexTupleCost, p.CPUOperatorCost, p.EffectiveCacheSize}},
	}
}

// TestCalibrationFileRoundTrip exercises the calibration JSON surface.
func TestCalibrationFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	cal := engine.DefaultCalibration()
	cal.Name = "test-profile"
	cal.RandomPageCost = 2.5
	if err := cal.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := engine.LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *cal {
		t.Fatalf("round trip changed the calibration: %+v != %+v", got, cal)
	}

	bad := filepath.Join(dir, "bad.json")
	writeFile(t, bad, `{"name": "typo", "random_page_cosy": 3}`)
	if _, err := engine.LoadCalibration(bad); err == nil {
		t.Fatal("unknown calibration field accepted")
	}
	neg := filepath.Join(dir, "neg.json")
	writeFile(t, neg, `{"name": "neg", "seq_page_cost": -1}`)
	if _, err := engine.LoadCalibration(neg); err == nil {
		t.Fatal("negative cost constant accepted")
	}
}

// TestConcurrentBaseSwapsStayConsistent hammers SetBaseConfig, alternating
// two base designs, while sweeps run. Under -race this proves the swap path
// is safe; the assertion checks every sweep returns internally consistent
// costs (all from one generation, matching a serial re-computation on the
// same pinned view — the nil configuration included, which prices whichever
// base the view pinned).
func TestConcurrentBaseSwapsStayConsistent(t *testing.T) {
	f := newFixture(t)
	cfgs := append(f.sweepConfigs(8), nil)
	bases := []*catalog.Configuration{
		catalog.NewConfiguration(),
		catalog.NewConfiguration().WithIndex(f.cands[0]).WithIndex(f.cands[1]),
	}

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				v := f.eng.Pin()
				swept, err := v.SweepConfigs(context.Background(), f.w, cfgs)
				if err != nil {
					errs[g] = err
					return
				}
				for i, cfg := range cfgs {
					want, err := v.WorkloadCost(context.Background(), f.w, cfg)
					if err != nil {
						errs[g] = err
						return
					}
					if swept[i] != want {
						t.Errorf("goroutine %d: sweep cost %v != pinned serial %v", g, swept[i], want)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				f.eng.SetBaseConfig(bases[(g+r)%len(bases)])
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := f.eng.Pin().Version(), f.v.Version()+8; got != want {
		t.Fatalf("8 base swaps left the engine at generation %d, want %d", got, want)
	}
}

func candOpts() whatif.CandidateOptions {
	opts := whatif.DefaultCandidateOptions()
	opts.MaxPerTable = 4
	return opts
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
