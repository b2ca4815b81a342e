package colt_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/colt"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func newTuner(t *testing.T, opts colt.Options) (*colt.Tuner, *engine.Engine) {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 101)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(store.Schema, store.Stats, nil)
	return colt.New(eng, nil, opts), eng
}

// indexFriendlyStream builds a stream dominated by covering-scan queries so
// single-column indexes genuinely help on the tiny dataset.
func indexFriendlyStream(t *testing.T, eng *engine.Engine, n int, phase2 bool) []workload.Query {
	t.Helper()
	var sqls []string
	if !phase2 {
		sqls = []string{
			"SELECT psfmag_r FROM photoobj WHERE psfmag_r BETWEEN 17 AND 18",
			"SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14",
		}
	} else {
		sqls = []string{
			"SELECT z FROM specobj WHERE z > 1.2",
			"SELECT distance FROM neighbors WHERE distance < 0.01",
		}
	}
	var out []workload.Query
	for i := 0; i < n; i++ {
		sql := sqls[i%len(sqls)]
		stmt, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(stmt, eng.Schema()); err != nil {
			t.Fatal(err)
		}
		out = append(out, workload.Query{
			ID: fmt.Sprintf("%s#%d", sql, i), SQL: sql, Weight: 1, Stmt: stmt,
		})
	}
	return out
}

// TestCandidateKeysAreIndexKeys: a candidate is tracked under the Key() of
// the index sized for it, whatever the case of the statement's names, so an
// epoch's lookup of a live index finds the candidate it came from.
func TestCandidateKeysAreIndexKeys(t *testing.T) {
	tuner, eng := newTuner(t, colt.DefaultOptions())
	var stream []workload.Query
	for i, sql := range []string{
		"SELECT PsfMag_R FROM PhotoObj WHERE PsfMag_R < 14 ORDER BY Ra",
		"SELECT p.objid FROM photoobj p JOIN SpecObj s ON p.ObjID = s.BestObjID WHERE s.Z > 1.2",
	} {
		stmt, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(stmt, eng.Schema()); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, workload.Query{ID: fmt.Sprint(i), SQL: sql, Weight: 1, Stmt: stmt})
	}
	if _, err := tuner.ObserveAll(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, c := range tuner.Candidates() {
		if c.Key != c.Index.Key() {
			t.Errorf("candidate tracked as %q sizes an index keyed %q", c.Key, c.Index.Key())
		}
		keys = append(keys, c.Key)
	}
	want := "photoobj(objid) photoobj(psfmag_r) photoobj(ra) specobj(bestobjid) specobj(z)"
	if got := strings.Join(keys, " "); got != want {
		t.Errorf("candidates %s, want %s", got, want)
	}
}

func TestTunerAdoptsBeneficialIndexes(t *testing.T) {
	opts := colt.DefaultOptions()
	opts.EpochLength = 10
	tuner, eng := newTuner(t, opts)
	stream := indexFriendlyStream(t, eng, 40, false)
	if _, err := tuner.ObserveAll(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	cfg := tuner.Current()
	if !cfg.HasIndex("photoobj(psfmag_r)") {
		t.Fatalf("tuner should adopt photoobj(psfmag_r); has %v", keysOf(cfg))
	}
	if len(tuner.Alerts()) == 0 {
		t.Fatal("no alerts raised")
	}
	first := tuner.Alerts()[0]
	if len(first.Added) == 0 || !first.Applied {
		t.Fatalf("first alert malformed: %+v", first)
	}
	if first.ExpectedBenefit <= 0 {
		t.Fatalf("expected positive benefit, got %f", first.ExpectedBenefit)
	}
}

func TestTunerAdaptsToDrift(t *testing.T) {
	opts := colt.DefaultOptions()
	opts.EpochLength = 10
	tuner, eng := newTuner(t, opts)

	phase1 := indexFriendlyStream(t, eng, 40, false)
	phase2 := indexFriendlyStream(t, eng, 60, true)
	if _, err := tuner.ObserveAll(context.Background(), phase1); err != nil {
		t.Fatal(err)
	}
	afterPhase1 := keysOf(tuner.Current())
	if _, err := tuner.ObserveAll(context.Background(), phase2); err != nil {
		t.Fatal(err)
	}
	afterPhase2 := keysOf(tuner.Current())

	// Phase 2 never touches photoobj; the tuner must have picked up at
	// least one phase-2 index.
	found := false
	for _, k := range afterPhase2 {
		if strings.HasPrefix(k, "specobj(") || strings.HasPrefix(k, "neighbors(") {
			found = true
		}
	}
	if !found {
		t.Fatalf("tuner did not adapt to drift: phase1=%v phase2=%v", afterPhase1, afterPhase2)
	}
}

func TestTunerRespectsSpaceBudget(t *testing.T) {
	opts := colt.DefaultOptions()
	opts.EpochLength = 10
	opts.SpaceBudgetPages = 40 // roughly one small index
	tuner, eng := newTuner(t, opts)
	stream := indexFriendlyStream(t, eng, 40, false)
	stream = append(stream, indexFriendlyStream(t, eng, 40, true)...)
	if _, err := tuner.ObserveAll(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ix := range tuner.Current().Indexes {
		total += ix.EstimatedPages
	}
	if total > opts.SpaceBudgetPages {
		t.Fatalf("space budget violated: %d > %d", total, opts.SpaceBudgetPages)
	}
}

func TestTunerAlertOnlyMode(t *testing.T) {
	opts := colt.DefaultOptions()
	opts.EpochLength = 10
	opts.AutoMaterialize = false
	tuner, eng := newTuner(t, opts)
	stream := indexFriendlyStream(t, eng, 40, false)
	if _, err := tuner.ObserveAll(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	if len(tuner.Alerts()) == 0 {
		t.Fatal("alert-only mode must still alert")
	}
	if len(tuner.Current().Indexes) != 0 {
		t.Fatal("alert-only mode must not materialize")
	}
	for _, a := range tuner.Alerts() {
		if a.Applied {
			t.Fatal("alert marked applied in alert-only mode")
		}
	}
}

func TestTunerSelfRegulatesBudget(t *testing.T) {
	opts := colt.DefaultOptions()
	opts.EpochLength = 10
	tuner, eng := newTuner(t, opts)
	// A long stable stream: after convergence, what-if usage should drop.
	stream := indexFriendlyStream(t, eng, 120, false)
	if _, err := tuner.ObserveAll(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	reports := tuner.Reports()
	if len(reports) < 6 {
		t.Fatalf("reports = %d", len(reports))
	}
	early := reports[1].WhatIfCalls
	late := reports[len(reports)-1].WhatIfCalls
	if late > early {
		t.Fatalf("self-regulation failed: early=%d late=%d what-if calls", early, late)
	}
}

func TestTunerCostReflectsAdoptedIndexes(t *testing.T) {
	opts := colt.DefaultOptions()
	opts.EpochLength = 10
	tuner, eng := newTuner(t, opts)
	stream := indexFriendlyStream(t, eng, 60, false)
	costs := make([]float64, 0, len(stream))
	for _, q := range stream {
		c, err := tuner.Observe(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c)
	}
	// After adoption, identical queries must cost less than at the start.
	if costs[len(costs)-2] >= costs[0] {
		t.Fatalf("online tuning did not reduce query cost: first=%f last=%f",
			costs[0], costs[len(costs)-2])
	}
}

func keysOf(cfg *catalog.Configuration) []string {
	out := make([]string, 0, len(cfg.Indexes))
	for _, ix := range cfg.Indexes {
		out = append(out, ix.Key())
	}
	return out
}

// TestSeededDesignSurvivesReselection: a tuner seeded with a design cannot
// profile what is already live, so it has no score for it; proposing only
// what it has scored used to drop the whole seed at the first alert. An
// index the tuner has never measured is carried; it re-decides what it has.
func TestSeededDesignSurvivesReselection(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(store.Schema, store.Stats, nil)
	seed := catalog.NewConfiguration()
	var seedPages int64
	for _, spec := range [][]string{
		{"photoobj", "objid"}, {"photoobj", "ra"}, {"photoobj", "type", "psfmag_r"},
		{"specobj", "bestobjid"}, {"specobj", "z"},
	} {
		ix, err := eng.Pin().Session().HypotheticalIndex(spec[0], spec[1:]...)
		if err != nil {
			t.Fatal(err)
		}
		seed = seed.WithIndex(ix)
		seedPages += ix.EstimatedPages
	}
	w, err := workload.NewWorkload(store.Schema, 1, 48)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts colt.Options) *colt.Tuner {
		t.Helper()
		opts.EpochLength = len(w.Queries) // every epoch prices the same statements
		tuner := colt.New(eng, seed, opts)
		for pass := 0; pass < 3; pass++ {
			if _, err := tuner.ObserveAll(context.Background(), w.Queries); err != nil {
				t.Fatal(err)
			}
		}
		return tuner
	}

	tuner := run(colt.DefaultOptions())
	if len(tuner.Alerts()) == 0 {
		t.Fatal("no configuration change to survive")
	}
	for _, a := range tuner.Alerts() {
		if len(a.Dropped) > 0 {
			t.Errorf("alert drops indexes the tuner never measured: %s", a)
		}
	}
	for _, ix := range seed.Indexes {
		if !tuner.Current().HasIndex(ix.Key()) {
			t.Errorf("seeded %s is gone; live design %v", ix.Key(), keysOf(tuner.Current()))
		}
	}
	reports := tuner.Reports()
	for i := 1; i < len(reports); i++ {
		if reports[i-1].ConfigChanged && reports[i].EpochCost > reports[i-1].EpochCost {
			t.Errorf("the change at epoch %d raised the same statements' cost: %.1f -> %.1f",
				i-1, reports[i-1].EpochCost, reports[i].EpochCost)
		}
	}

	// The carried indexes count against the space budget: with room for the
	// seed and nothing else, nothing is added.
	tight := colt.DefaultOptions()
	tight.SpaceBudgetPages = seedPages
	if alerts := run(tight).Alerts(); len(alerts) != 0 {
		t.Errorf("budget is full of carried indexes, yet: %v", alerts)
	}
}
