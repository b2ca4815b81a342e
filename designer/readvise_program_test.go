package designer

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/workload"
)

// sameAnswer fails unless two advices agree bit for bit: index keys,
// objective, bound, Proven and the report's totals.
func sameAnswer(t *testing.T, label string, got, want *Advice) {
	t.Helper()
	keys := func(a *Advice) []string {
		var out []string
		for _, ix := range a.Indexes {
			out = append(out, ix.Key())
		}
		return out
	}
	bits := math.Float64bits
	switch {
	case !slices.Equal(keys(got), keys(want)):
		t.Fatalf("%s: indexes %v, cold %v", label, keys(got), keys(want))
	case bits(got.Solver.Objective) != bits(want.Solver.Objective) || bits(got.Solver.Bound) != bits(want.Solver.Bound) ||
		got.Solver.Proven != want.Solver.Proven:
		t.Fatalf("%s: objective %v bound %v proven %v, cold %v %v %v", label,
			got.Solver.Objective, got.Solver.Bound, got.Solver.Proven, want.Solver.Objective, want.Solver.Bound, want.Solver.Proven)
	case bits(got.Report.BaseTotal) != bits(want.Report.BaseTotal) || bits(got.Report.NewTotal) != bits(want.Report.NewTotal):
		t.Fatalf("%s: report (%v, %v), cold (%v, %v)", label,
			got.Report.BaseTotal, got.Report.NewTotal, want.Report.BaseTotal, want.Report.NewTotal)
	}
}

// sameResult fails unless two CoPhy answers agree bit for bit.
func sameResult(t *testing.T, label string, got, want *cophy.Result) {
	t.Helper()
	bits := math.Float64bits
	if len(got.Indexes) != len(want.Indexes) || bits(got.Objective) != bits(want.Objective) ||
		bits(got.Bound) != bits(want.Bound) || bits(got.BaselineCost) != bits(want.BaselineCost) ||
		got.Proven != want.Proven || got.Nodes != want.Nodes || len(got.PerQuery) != len(want.PerQuery) {
		t.Fatalf("%s: %d indexes, objective %v, bound %v, baseline %v, proven %v, %d nodes; fresh %d, %v, %v, %v, %v, %d",
			label, len(got.Indexes), got.Objective, got.Bound, got.BaselineCost, got.Proven, got.Nodes,
			len(want.Indexes), want.Objective, want.Bound, want.BaselineCost, want.Proven, want.Nodes)
	}
	for i := range got.Indexes {
		if got.Indexes[i].Key() != want.Indexes[i].Key() {
			t.Fatalf("%s: index %d is %s, fresh %s", label, i, got.Indexes[i].Key(), want.Indexes[i].Key())
		}
	}
	for i := range got.PerQuery {
		g, w := got.PerQuery[i], want.PerQuery[i]
		if g.QueryID != w.QueryID || bits(g.Cost) != bits(w.Cost) || len(g.Indexes) != len(w.Indexes) {
			t.Fatalf("%s: plan %d is %s at %v, fresh %s at %v", label, i, g.QueryID, g.Cost, w.QueryID, w.Cost)
		}
	}
}

// TestReAdviseReusesProgramExactly is the differential twin of the kept
// CoPhy program: a design session walks a seeded sequence of budgets, fresh
// and revisited, with pins and partitions toggled, and every answer equals
// a cold Designer.Advise of the same question bit for bit. A rung that
// reuses the candidates prices nothing: PricingCalls is 0 and, without
// AutoPart, the engine's costing count does not move. A workload edit and
// a Materialize rebuild the program, both through the session and on the
// advisor the session kept.
func TestReAdviseReusesProgramExactly(t *testing.T) {
	ctx := context.Background()
	d, err := OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.GenerateWorkload(7, 24)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := d.HypotheticalIndex("photoobj", "airmass_r")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []Index{seed}

	s := d.NewDesignSession()
	free, err := s.Advise(ctx, w, AdviceOptions{SeedIndexes: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if free.Solver.PricingCalls == 0 {
		t.Fatal("the priming advice priced nothing")
	}
	var footprint int64
	for _, ix := range free.Indexes {
		footprint += ix.EstimatedPages
	}
	rungs := []float64{0.9, 0.5, 0.75, 0.25, 0.6, 0.1, 0.4}
	rng := rand.New(rand.NewSource(45))
	// A pin is asked for only where the budget holds it: a pinned seed
	// over the budget is an infeasible question, warm or cold.
	question := func() AdviceOptions {
		budget := max(1, int64(rungs[rng.Intn(len(rungs))]*float64(footprint)))
		return AdviceOptions{
			StorageBudgetPages: budget,
			SeedIndexes:        seeds,
			PinIndexes:         rng.Intn(2) == 0 && seed.EstimatedPages <= budget,
			Partitions:         rng.Intn(3) == 0,
		}
	}
	// The walk's answers, by question, in the order first asked.
	type asked struct {
		budget          int64
		pin, partitions bool
	}
	answered := map[asked]*Advice{}
	var order []asked
	warmRungs := 0
	for step := 0; step < 24; step++ {
		opts := question()
		costingsBefore := d.CacheStats().CachedCostings
		got, stats, err := s.ReAdvise(ctx, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		costingsAfter := d.CacheStats().CachedCostings
		cold, err := d.Advise(ctx, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "step", got, cold)
		if cold.Solver.PricingCalls == 0 {
			t.Fatalf("step %d: a cold advise priced nothing", step)
		}
		if stats.Cached {
			continue
		}
		if !stats.CandidatesReused {
			t.Fatalf("step %d: the budget walk regenerated the candidates: %+v", step, stats)
		}
		warmRungs++
		if got.Solver.PricingCalls != 0 {
			t.Fatalf("step %d (%+v): a warm rung priced %d costings", step, opts, got.Solver.PricingCalls)
		}
		if !opts.Partitions && costingsAfter != costingsBefore {
			t.Fatalf("step %d: a warm rung without partitions made %d INUM costings", step, costingsAfter-costingsBefore)
		}
		key := asked{opts.StorageBudgetPages, opts.PinIndexes, opts.Partitions}
		if answered[key] == nil {
			order = append(order, key)
		}
		answered[key] = got
	}
	t.Logf("%d warm rungs over %d distinct questions", warmRungs, len(answered))
	if warmRungs < 12 || len(answered) < 6 {
		t.Fatalf("the walk asked %d warm rungs over %d distinct questions: too few to revisit", warmRungs, len(answered))
	}

	ask := cophy.DefaultOptions()
	ask.StorageBudgetPages = footprint / 2
	kept := s.last.adv
	fresh := func(v *engine.View, iw *workload.Workload) *cophy.Result {
		t.Helper()
		res, err := cophy.New(d.eng, kept.Candidates()).AdviseView(ctx, v, iw, ask)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rebuilds := func(label string, v *engine.View, iw *workload.Workload) {
		t.Helper()
		got, err := kept.AdviseView(ctx, v, iw, ask)
		if err != nil {
			t.Fatal(err)
		}
		if got.PricingCalls == 0 {
			t.Fatalf("%s: the kept advisor answered from its old program", label)
		}
		sameResult(t, label, got, fresh(v, iw))
	}

	// A workload edit: four more statements, then one weight moved.
	longer, err := d.GenerateWorkload(7, 28)
	if err != nil {
		t.Fatal(err)
	}
	qs := w.Queries()
	qs[5] = qs[5].WithWeight(3)
	heavier, err := NewWorkload(qs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []struct {
		label string
		w     *Workload
	}{{"longer workload", longer}, {"heavier statement", heavier}} {
		rebuilds(edit.label, s.view, edit.w.internal())
		opts := AdviceOptions{StorageBudgetPages: footprint / 2, SeedIndexes: seeds}
		got, _, err := s.ReAdvise(ctx, edit.w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Solver.PricingCalls == 0 {
			t.Fatalf("%s: the session answered from its old program", edit.label)
		}
		cold, err := d.Advise(ctx, edit.w, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, edit.label, got, cold)
		kept = s.last.adv
	}

	// A Materialize: the session stays on its pinned generation and keeps
	// its program; its advisor asked on the new generation rebuilds.
	if _, _, err := s.ReAdvise(ctx, w, AdviceOptions{StorageBudgetPages: footprint / 2, SeedIndexes: seeds}); err != nil {
		t.Fatal(err)
	}
	kept = s.last.adv
	if _, err := d.Materialize(ctx, free.Indexes[:1]); err != nil {
		t.Fatal(err)
	}
	for _, key := range order {
		opts := AdviceOptions{StorageBudgetPages: key.budget, SeedIndexes: seeds, PinIndexes: key.pin, Partitions: key.partitions}
		got, _, err := s.ReAdvise(ctx, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Solver.PricingCalls != 0 {
			t.Fatalf("%+v: the pinned session rebuilt its program after a Materialize", key)
		}
		sameAnswer(t, "revisited after a Materialize", got, answered[key])
	}
	rebuilds("materialized", d.eng.Pin(), w.internal())
	s2 := d.NewDesignSession()
	if first, err := s2.Advise(ctx, w, AdviceOptions{SeedIndexes: seeds}); err != nil || first.Solver.PricingCalls == 0 {
		t.Fatalf("a session on the new generation: priced %v, err %v", first != nil && first.Solver.PricingCalls > 0, err)
	}
	opts := AdviceOptions{StorageBudgetPages: footprint / 3, SeedIndexes: seeds, PinIndexes: true}
	got, _, err := s2.ReAdvise(ctx, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := d.Advise(ctx, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Solver.PricingCalls != 0 {
		t.Fatalf("a warm rung on the new generation priced %d costings", got.Solver.PricingCalls)
	}
	sameAnswer(t, "new generation", got, cold)
}
