package cophy_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/workload"
)

// sameResult fails unless two answers agree bit for bit.
func sameResult(t *testing.T, label string, got, want *cophy.Result) {
	t.Helper()
	bits := math.Float64bits
	if len(got.Indexes) != len(want.Indexes) || bits(got.Objective) != bits(want.Objective) ||
		bits(got.Bound) != bits(want.Bound) || bits(got.BaselineCost) != bits(want.BaselineCost) ||
		got.Proven != want.Proven || got.Nodes != want.Nodes || got.WarmStarted != want.WarmStarted ||
		len(got.PerQuery) != len(want.PerQuery) {
		t.Errorf("%s: %d indexes, objective %v, bound %v, proven %v, %d nodes; fresh %d, %v, %v, %v, %d",
			label, len(got.Indexes), got.Objective, got.Bound, got.Proven, got.Nodes,
			len(want.Indexes), want.Objective, want.Bound, want.Proven, want.Nodes)
		return
	}
	for i := range got.Indexes {
		if got.Indexes[i].Key() != want.Indexes[i].Key() {
			t.Errorf("%s: index %d is %s, fresh %s", label, i, got.Indexes[i].Key(), want.Indexes[i].Key())
		}
	}
	for i := range got.PerQuery {
		if g, w := got.PerQuery[i], want.PerQuery[i]; g.QueryID != w.QueryID || bits(g.Cost) != bits(w.Cost) {
			t.Errorf("%s: plan %d is %s at %v, fresh %s at %v", label, i, g.QueryID, g.Cost, w.QueryID, w.Cost)
		}
	}
}

// questions are the fixture's questions of the concurrency test: budgets,
// node budgets, pins, warm starts and atom caps.
func questions(f *fixture) []cophy.Options {
	var total int64
	for _, ix := range f.cands {
		total += ix.EstimatedPages
	}
	var qs []cophy.Options
	for k, frac := range []float64{0, 0.1, 0.25, 0.5, 0.75} {
		o := cophy.DefaultOptions()
		o.StorageBudgetPages = int64(frac * float64(total))
		o.NodeBudget = k % 3
		if k%2 == 1 {
			o.WarmStartKeys = []string{f.cands[0].Key(), f.cands[2].Key()}
		}
		qs = append(qs, o)
	}
	pinned := cophy.DefaultOptions()
	pinned.PinnedKeys = []string{f.cands[1].Key()}
	wide := cophy.DefaultOptions()
	wide.MaxIndexesPerQueryTable, wide.MaxAtomsPerQuery = 5, 48
	return append(qs, pinned, wide)
}

// TestKeptProgramAnswersLikeAFreshAdvisor: one advisor asked a sequence of
// questions — revisited budgets, pins, warm starts — answers each exactly
// like a fresh advisor, pricing only when the view, the workload or the
// atom caps changed.
func TestKeptProgramAnswersLikeAFreshAdvisor(t *testing.T) {
	f := newFixture(t, 12, 24)
	ctx := context.Background()
	adv := cophy.New(f.eng, f.cands)
	other := f.eng.Pin()
	fewer := &workload.Workload{Queries: f.w.Queries[:8]}
	qs := questions(f)
	for round, r := range []struct {
		v *engine.View
		w *workload.Workload
	}{{f.v, f.w}, {f.v, f.w}, {other, f.w}, {f.v, fewer}, {f.v, f.w}} {
		for k, o := range qs {
			got, err := adv.AdviseView(ctx, r.v, r.w, o)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cophy.New(f.eng, f.cands).AdviseView(ctx, r.v, r.w, o)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "kept program", got, want)
			// A round's first question follows the other caps (or is the
			// first on its view or workload), and its last asks under the
			// other caps: both build, and nothing else does.
			builds := k == 0 || k == len(qs)-1
			if builds != (got.PricingCalls > 0) {
				t.Errorf("round %d, question %d: %d pricing calls", round, k, got.PricingCalls)
			}
		}
	}
}

// TestConcurrentAdviseViewOnOneAdvisor: goroutines asking one advisor
// different questions at once, on two views, each get the answer a fresh
// advisor gives alone. Run it under -race.
func TestConcurrentAdviseViewOnOneAdvisor(t *testing.T) {
	f := newFixture(t, 12, 24)
	ctx := context.Background()
	views := []*engine.View{f.v, f.eng.Pin()}
	qs := questions(f)
	want := make([][]*cophy.Result, len(views))
	for i, v := range views {
		for _, o := range qs {
			res, err := cophy.New(f.eng, f.cands).AdviseView(ctx, v, f.w, o)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], res)
		}
	}
	adv := cophy.New(f.eng, f.cands)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for k := range qs {
					k := (k + g) % len(qs)
					i := (g + r + k) % len(views)
					got, err := adv.AdviseView(ctx, views[i], f.w, qs[k])
					if err != nil {
						t.Error(err)
						return
					}
					sameResult(t, "concurrent", got, want[i][k])
				}
			}
		}()
	}
	wg.Wait()
}
