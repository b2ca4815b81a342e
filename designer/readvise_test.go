package designer_test

import (
	"context"
	"math"
	"testing"

	"repro/designer"
)

// sameAdvice asserts two advices agree exactly: index sets and report
// totals.
func sameAdvice(t *testing.T, label string, warm, cold *designer.Advice) {
	t.Helper()
	if len(warm.Indexes) != len(cold.Indexes) {
		t.Fatalf("%s: %d indexes vs cold %d", label, len(warm.Indexes), len(cold.Indexes))
	}
	for i := range warm.Indexes {
		if warm.Indexes[i].Key() != cold.Indexes[i].Key() {
			t.Fatalf("%s: index %d = %s, cold %s", label, i, warm.Indexes[i].Key(), cold.Indexes[i].Key())
		}
	}
	if warm.Report.BaseTotal != cold.Report.BaseTotal || warm.Report.NewTotal != cold.Report.NewTotal {
		t.Fatalf("%s: report (%v, %v) vs cold (%v, %v)", label,
			warm.Report.BaseTotal, warm.Report.NewTotal, cold.Report.BaseTotal, cold.Report.NewTotal)
	}
}

// TestSessionAdviseMatchesDesignerAdvise pins that a session-scoped advise
// answers exactly like the designer-wide pipeline at the same generation.
func TestSessionAdviseMatchesDesignerAdvise(t *testing.T) {
	d := open(t)
	w := sdssWorkload(t, d, 10)
	ctx := context.Background()
	opts := designer.AdviceOptions{StorageBudgetPages: 4000}

	s := d.NewDesignSession()
	got, err := s.Advise(ctx, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Advise(ctx, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameAdvice(t, "session advise", got, want)
	// The session keeps the answer: the same question again is served
	// from it, the same *Advice.
	again, stats, err := s.ReAdvise(ctx, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Cached || again != got {
		t.Fatalf("the session does not carry its last advice: cached %v, same advice %v", stats.Cached, again == got)
	}
}

// TestReAdviseCachedPath pins the fastest path: the identical question
// returns the previous advice verbatim with nothing recosted.
func TestReAdviseCachedPath(t *testing.T) {
	d := open(t)
	w := sdssWorkload(t, d, 10)
	ctx := context.Background()
	opts := designer.AdviceOptions{StorageBudgetPages: 4000}

	s := d.NewDesignSession()
	first, err := s.Advise(ctx, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	again, stats, err := s.ReAdvise(ctx, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Cached || !stats.Warm {
		t.Fatalf("identical question not served from cache: %+v", stats)
	}
	if stats.RecostedQueries != 0 {
		t.Fatalf("cached path recosted %d queries", stats.RecostedQueries)
	}
	if again != first {
		t.Fatal("cached path rebuilt the advice")
	}

	// The same question is recognised by content, not by the *Workload: the
	// same statements parsed again take the cached path, and one statement's
	// weight moved by one ulp does not.
	reparse := func(bump int) *designer.Workload {
		t.Helper()
		var qs []designer.Query
		for i, q := range w.Queries() {
			p, err := d.ParseQuery(q.ID(), q.SQL())
			if err != nil {
				t.Fatal(err)
			}
			weight := q.Weight()
			if i == bump {
				weight = math.Nextafter(weight, math.Inf(1))
			}
			qs = append(qs, p.WithWeight(weight))
		}
		rw, err := designer.NewWorkload(qs...)
		if err != nil {
			t.Fatal(err)
		}
		return rw
	}
	if got, stats, err := s.ReAdvise(ctx, reparse(-1), opts); err != nil || !stats.Cached || got != first {
		t.Fatalf("re-parsed identical workload: cached %v, same advice %v, err %v", stats.Cached, got == first, err)
	}
	if _, stats, err := s.ReAdvise(ctx, reparse(3), opts); err != nil || stats.Cached {
		t.Fatalf("one-ulp weight change: cached %v, err %v", stats.Cached, err)
	}
}

// TestReAdviseBudgetChangeWarmMatchesCold is the heart of the interactive
// pillar: changing the budget re-advises warm — candidates reused, solver
// seeded, report delta-costed — and the answer is exactly what a cold
// advise at the new budget computes.
func TestReAdviseBudgetChangeWarmMatchesCold(t *testing.T) {
	d := open(t)
	w := sdssWorkload(t, d, 10)
	ctx := context.Background()

	s := d.NewDesignSession()
	if _, err := s.Advise(ctx, w, designer.AdviceOptions{}); err != nil {
		t.Fatal(err)
	}
	tight := designer.AdviceOptions{StorageBudgetPages: 3000}
	warm, stats, err := s.ReAdvise(ctx, w, tight)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Warm || !stats.CandidatesReused {
		t.Fatalf("budget-change readvise ran cold: %+v", stats)
	}
	if stats.RecostedQueries+stats.ReusedQueries != 10 {
		t.Fatalf("delta split %d+%d != 10", stats.RecostedQueries, stats.ReusedQueries)
	}
	cold, err := d.Advise(ctx, w, tight)
	if err != nil {
		t.Fatal(err)
	}
	sameAdvice(t, "budget-change readvise", warm, cold)
}

// TestReAdviseWorkloadChangeFallsBackAndMatches asserts a workload edit
// (the question actually changed) still answers exactly like cold.
func TestReAdviseWorkloadChangeFallsBackAndMatches(t *testing.T) {
	d := open(t)
	w := sdssWorkload(t, d, 8)
	ctx := context.Background()
	opts := designer.AdviceOptions{StorageBudgetPages: 4000}

	s := d.NewDesignSession()
	if _, err := s.Advise(ctx, w, opts); err != nil {
		t.Fatal(err)
	}
	w2 := sdssWorkload(t, d, 12) // same seed prefix, four more queries
	warm, stats, err := s.ReAdvise(ctx, w2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cached {
		t.Fatal("changed workload served from cache")
	}
	cold, err := d.Advise(ctx, w2, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameAdvice(t, "workload-change readvise", warm, cold)
}

// TestReAdviseWithoutPriorAdviseIsCold asserts the first ReAdvise on a
// fresh session simply answers cold.
func TestReAdviseWithoutPriorAdviseIsCold(t *testing.T) {
	d := open(t)
	w := sdssWorkload(t, d, 8)
	ctx := context.Background()
	opts := designer.AdviceOptions{StorageBudgetPages: 4000}

	s := d.NewDesignSession()
	got, stats, err := s.ReAdvise(ctx, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cached {
		t.Fatalf("no prior advice but served cached: %+v", stats)
	}
	cold, err := d.Advise(ctx, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameAdvice(t, "first readvise", got, cold)
}

// TestSessionEvaluateDelta pins the session-level delta loop: add an
// index, re-evaluate, and only the queries touching that index's table are
// re-priced — with a report identical to a fresh session's cold evaluate.
func TestSessionEvaluateDelta(t *testing.T) {
	d := open(t)
	w := sdssWorkload(t, d, 12)
	ctx := context.Background()

	s := d.NewDesignSession()
	if _, err := s.Evaluate(ctx, w); err != nil {
		t.Fatal(err)
	}
	if re, _ := s.LastEvaluateDelta(); re != 12 {
		t.Fatalf("cold evaluate recosted %d, want 12", re)
	}
	if _, err := s.AddIndex("specobj", "z"); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Evaluate(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	recosted, reused := s.LastEvaluateDelta()
	if recosted+reused != 12 || reused == 0 {
		t.Fatalf("delta split %d+%d, want a partial recost of 12", recosted, reused)
	}

	fresh := d.NewDesignSession()
	if _, err := fresh.AddIndex("specobj", "z"); err != nil {
		t.Fatal(err)
	}
	cold, err := fresh.Evaluate(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if warm.BaseTotal != cold.BaseTotal || warm.NewTotal != cold.NewTotal {
		t.Fatalf("delta evaluate (%v, %v) != cold (%v, %v)",
			warm.BaseTotal, warm.NewTotal, cold.BaseTotal, cold.NewTotal)
	}
	for i := range cold.Queries {
		if warm.Queries[i] != cold.Queries[i] {
			t.Fatalf("query %d: delta %+v != cold %+v", i, warm.Queries[i], cold.Queries[i])
		}
	}
}
