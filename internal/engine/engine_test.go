package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// fixture is an engine with its first generation pinned as v: tests that
// do not reconfigure the engine price on v, tests that do pin again.
type fixture struct {
	eng   *engine.Engine
	v     *engine.View
	w     *workload.Workload
	cands []*catalog.Index
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(store.Schema, store.Stats, nil)
	w, err := workload.NewWorkload(store.Schema, 42, 12)
	if err != nil {
		t.Fatal(err)
	}
	opts := whatif.DefaultCandidateOptions()
	opts.MaxPerTable = 4
	v := eng.Pin()
	cands := v.Session().GenerateCandidates(w, opts)
	if len(cands) < 4 {
		t.Fatalf("want at least 4 candidates, got %d", len(cands))
	}
	if err := v.Prepare(context.Background(), w, cands); err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, v: v, w: w, cands: cands}
}

// sweepConfigs builds a deterministic family of configurations over the
// candidate set.
func (f *fixture) sweepConfigs(n int) []*catalog.Configuration {
	cfgs := make([]*catalog.Configuration, 0, n)
	for i := 0; i < n; i++ {
		cfg := catalog.NewConfiguration()
		for j, ix := range f.cands {
			if (i+j)%3 == 0 {
				cfg = cfg.WithIndex(ix)
			}
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestSweepConfigsMatchesSerial asserts the worker-pool sweep returns
// bit-for-bit the costs a serial loop computes.
func TestSweepConfigsMatchesSerial(t *testing.T) {
	f := newFixture(t)
	cfgs := f.sweepConfigs(16)

	serial := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		c, err := f.v.WorkloadCost(context.Background(), f.w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = c
	}
	parallel, err := f.v.SweepConfigs(context.Background(), f.w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if parallel[i] != serial[i] {
			t.Fatalf("config %d: parallel %v != serial %v", i, parallel[i], serial[i])
		}
	}
}

// TestConcurrentSweepsMatchSerial sweeps the same workload from many
// goroutines simultaneously and asserts every goroutine observes exactly
// the serial results — the -race guarantee the engine layer exists to give.
func TestConcurrentSweepsMatchSerial(t *testing.T) {
	f := newFixture(t)
	cfgs := f.sweepConfigs(12)

	serial := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		c, err := f.v.WorkloadCost(context.Background(), f.w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = c
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Mix whole-workload sweeps and per-query costings.
			got, err := f.v.SweepConfigs(context.Background(), f.w, cfgs)
			if err != nil {
				errs[g] = err
				return
			}
			for i := range cfgs {
				if got[i] != serial[i] {
					errs[g] = fmt.Errorf("goroutine %d config %d: %v != %v", g, i, got[i], serial[i])
					return
				}
			}
			for i, q := range f.w.Queries {
				if _, err := f.v.QueryCost(q, cfgs[i%len(cfgs)]); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepQueryConfigsMatchesSerial checks CoPhy's atom-pricing primitive.
func TestSweepQueryConfigsMatchesSerial(t *testing.T) {
	f := newFixture(t)
	cfgs := f.sweepConfigs(10)
	q := f.w.Queries[0]

	costs, err := f.v.SweepQueryConfigs(context.Background(), q, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := f.v.QueryCost(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if costs[i] != want {
			t.Fatalf("config %d: %v != %v", i, costs[i], want)
		}
	}
}

// TestVersioningAndInvalidation verifies the engine swaps a fresh cache and
// bumps the version whenever the base configuration changes, and that
// nil-configuration costing tracks the current base.
func TestVersioningAndInvalidation(t *testing.T) {
	f := newFixture(t)
	q := f.w.Queries[0]

	v0 := f.v.Version()
	baseCost, err := f.v.QueryCost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full, _ := f.eng.CacheStats(); full == 0 {
		t.Fatal("the prepared fixture reports no full optimizations")
	}

	// Adopt the full candidate set as the new base design.
	cfg := catalog.NewConfiguration()
	for _, ix := range f.cands {
		cfg = cfg.WithIndex(ix)
	}
	f.eng.SetBaseConfig(cfg)

	v := f.eng.Pin()
	if got := v.Version(); got != v0+1 {
		t.Fatalf("version = %d, want %d", got, v0+1)
	}
	full0, _ := f.eng.CacheStats()
	newCost, err := v.QueryCost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full, _ := f.eng.CacheStats(); full == full0 {
		t.Fatal("a view pinned after SetBaseConfig priced from a stale INUM entry: it built nothing")
	}
	want, err := v.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if newCost != want {
		t.Fatalf("nil-config costing %v does not reflect the new base %v", newCost, want)
	}
	if newCost > baseCost {
		t.Fatalf("cost under the full candidate set (%v) should not exceed the empty base (%v)", newCost, baseCost)
	}

	// Re-installing the same base is still a new generation.
	f.eng.SetBaseConfig(v.Base())
	if got := f.eng.Pin().Version(); got != v0+2 {
		t.Fatalf("version after re-installing the base = %d, want %d", got, v0+2)
	}
}

// TestPinnedViewSurvivesReconfiguration asserts a view captured before
// SetBaseConfig keeps pricing against its own generation, so an advisor
// run in flight stays internally consistent.
func TestPinnedViewSurvivesReconfiguration(t *testing.T) {
	f := newFixture(t)
	q := f.w.Queries[0]
	v := f.eng.Pin()
	before, err := v.QueryCost(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	full := catalog.NewConfiguration()
	for _, ix := range f.cands {
		full = full.WithIndex(ix)
	}
	f.eng.SetBaseConfig(full)

	// The pinned view still resolves nil to the OLD (empty) base.
	after, err := v.QueryCost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("pinned view changed generation: %v != %v", after, before)
	}
	if v.Version() == f.eng.Pin().Version() {
		t.Fatal("pinned view should report the old version")
	}
	// A fresh pin sees the new generation.
	fresh, err := f.eng.Pin().QueryCost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh > before {
		t.Fatalf("new generation (all candidates) should not cost more: %v > %v", fresh, before)
	}
}

// TestEvaluateMatchesSerialFullCosts asserts the engine's Report
// generation (parallel inside the session) agrees with serial
// full-optimizer costings of every query.
func TestEvaluateMatchesSerialFullCosts(t *testing.T) {
	f := newFixture(t)
	cfg := catalog.NewConfiguration()
	for _, ix := range f.cands[:2] {
		cfg = cfg.WithIndex(ix)
	}
	rep, err := f.v.Evaluate(context.Background(), f.w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Base) != len(f.w.Queries) || len(rep.New) != len(f.w.Queries) {
		t.Fatalf("report has %d/%d queries, want %d", len(rep.Base), len(rep.New), len(f.w.Queries))
	}
	var wantBase, wantNew float64
	for i, q := range f.w.Queries {
		base, err := f.v.FullCost(q.Stmt, nil)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := f.v.FullCost(q.Stmt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Base[i] != base*q.Weight || rep.New[i] != nw*q.Weight {
			t.Fatalf("%s: report (%v -> %v) != serial (%v -> %v)",
				q.ID, rep.Base[i], rep.New[i], base*q.Weight, nw*q.Weight)
		}
		wantBase += base * q.Weight
		wantNew += nw * q.Weight
	}
	if rep.BaseTotal != wantBase || rep.NewTotal != wantNew {
		t.Fatalf("totals (%v -> %v) != serial (%v -> %v)", rep.BaseTotal, rep.NewTotal, wantBase, wantNew)
	}
}

// TestEvaluateBenefit asserts the report's shape on a design that
// helps: every query covered, a positive total benefit, and no query made
// worse (what-if evaluation only adds access paths).
func TestEvaluateBenefit(t *testing.T) {
	f := newFixture(t)
	cfg := catalog.NewConfiguration()
	for _, spec := range [][]string{{"objid"}, {"ra"}, {"type", "psfmag_r"}} {
		ix, err := f.v.Session().HypotheticalIndex("photoobj", spec...)
		if err != nil {
			t.Fatal(err)
		}
		cfg = cfg.WithIndex(ix)
	}
	ix, err := f.v.Session().HypotheticalIndex("specobj", "bestobjid")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.WithIndex(ix)

	rep, err := f.v.Evaluate(context.Background(), f.w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Base) != len(f.w.Queries) || len(rep.New) != len(f.w.Queries) {
		t.Fatalf("report covers %d/%d queries, want %d", len(rep.Base), len(rep.New), len(f.w.Queries))
	}
	if rep.TotalBenefit() <= 0 {
		t.Fatalf("indexes should help this workload: base=%f new=%f", rep.BaseTotal, rep.NewTotal)
	}
	for i, q := range f.w.Queries {
		if rep.New[i] > rep.Base[i]*1.0001 {
			t.Errorf("query %s regressed: %f -> %f", q.ID, rep.Base[i], rep.New[i])
		}
	}
	if rep.AvgBenefitPct() <= 0 || rep.AvgBenefitPct() > 100 {
		t.Errorf("avg benefit pct = %f", rep.AvgBenefitPct())
	}
}

func TestEvaluateEmptyConfigIsNeutral(t *testing.T) {
	f := newFixture(t)
	rep, err := f.v.Evaluate(context.Background(), f.w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBenefit() != 0 || rep.AvgBenefitPct() != 0 {
		t.Fatalf("nil config should be cost-neutral: benefit %f, pct %f", rep.TotalBenefit(), rep.AvgBenefitPct())
	}
}

// TestEvaluateSteered pins the join-steered evaluate — Evaluate on a view
// derived with optimizer switches (WithOptions) — to the engine's own pool:
// with no switch set it reproduces Evaluate bit-for-bit, with joins
// disabled it prices exactly what a steered session prices query by query,
// at every pool width, and a cancelled context aborts it like any sweep.
func TestEvaluateSteered(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	v := f.eng.Pin()
	cfg := catalog.NewConfiguration()
	for _, ix := range f.cands[:3] {
		cfg = cfg.WithIndex(ix)
	}

	plain, err := v.Evaluate(ctx, f.w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unsteered, err := v.WithOptions(optimizer.Options{}).Evaluate(ctx, f.w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, unsteered) {
		t.Fatal("Evaluate on a view derived with no switches differs from Evaluate")
	}

	opts := optimizer.Options{DisableHashJoin: true, DisableMergeJoin: true}
	steered := v.WithOptions(opts)
	sess := whatif.NewSessionFromEnv(f.eng.Env().WithOptions(opts), v.Base())
	var ref *whatif.Report
	for _, width := range []int{1, 4} {
		f.eng.SetWorkers(width)
		rep, err := steered.Evaluate(ctx, f.w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = rep
			for i, q := range f.w.Queries {
				base, err := sess.Cost(q.Stmt, nil)
				if err != nil {
					t.Fatal(err)
				}
				nw, err := sess.Cost(q.Stmt, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Base[i] != base*q.Weight || rep.New[i] != nw*q.Weight {
					t.Fatalf("%s: steered report (%v -> %v) != steered session (%v -> %v)",
						q.ID, rep.Base[i], rep.New[i], base*q.Weight, nw*q.Weight)
				}
			}
		} else if !reflect.DeepEqual(ref, rep) {
			t.Fatalf("steered report at width %d differs from width 1", width)
		}
	}
	if reflect.DeepEqual(plain, ref) {
		t.Fatal("disabling hash and merge joins changed no cost — the switches did not reach the planner")
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := steered.Evaluate(cancelled, f.w, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled steered evaluate returned %v", err)
	}
}

// TestSessionWithScopedJoinControl asserts per-session join steering — a
// view derived with optimizer switches (WithOptions) — does not leak into
// the engine or the view it was derived from, and shares no costing state
// with that view: same generation and base, a session and a snapshot of
// its own.
func TestSessionWithScopedJoinControl(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	_, st, err := f.v.EvaluateDelta(ctx, f.w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	full0, cached0 := f.eng.CacheStats()

	steered := f.v.WithOptions(optimizer.Options{DisableHashJoin: true, DisableMergeJoin: true})
	sess := steered.Session()
	if sess == f.v.Session() {
		t.Fatal("WithOptions shares the view's session")
	}
	if steered.Version() != f.v.Version() || steered.Base() != f.v.Base() || steered.Stats() != f.v.Stats() {
		t.Fatal("WithOptions moved off the view's generation")
	}
	if st.Reusable(steered, f.w) {
		t.Fatal("an evaluation state of the view is reusable on its steered derivation")
	}
	full, cached := f.eng.CacheStats()
	if f.eng.Pin().Version() != f.v.Version() || full != full0 || cached != cached0 {
		t.Fatal("WithOptions mutated the engine")
	}
	if !sess.Env().Opts.DisableHashJoin {
		t.Fatal("derived session did not apply the switches")
	}
	if f.v.Session().Env().Opts.DisableHashJoin || f.eng.Env().Opts.DisableHashJoin {
		t.Fatal("join switches leaked into the engine environment")
	}
}

// TestSetWorkers exercises the pool-size bound, including the serial path.
func TestSetWorkers(t *testing.T) {
	f := newFixture(t)
	cfgs := f.sweepConfigs(6)
	want, err := f.v.SweepConfigs(context.Background(), f.w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 0} {
		f.eng.SetWorkers(n)
		got, err := f.v.SweepConfigs(context.Background(), f.w, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d config %d: %v != %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestEngineIsLifecycleOnly pins the division of labour: *Engine is
// constructed, pinned, reconfigured through the two doors the product uses,
// bounded and counted; every what-if question is a method on *View. A new
// exported method on *Engine fails here — costing belongs on the view, so a
// question cannot be answered on two generations.
func TestEngineIsLifecycleOnly(t *testing.T) {
	want := []string{
		"Base", "CacheStats", "Env", "Pin", "PinBackend", "PinOnline",
		"PlanSearches", "Schema", "SetBaseConfig", "SetStats", "SetWorkers", "Workers",
	}
	typ := reflect.TypeOf((*engine.Engine)(nil))
	got := make([]string, typ.NumMethod())
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exported methods of *Engine:\n got %v\nwant %v", got, want)
	}
}
