package greedy_test

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/greedy"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func fixture(t *testing.T, nQueries, maxCands int) (*engine.View, []*catalog.Index, *workload.Workload) {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 61)
	if err != nil {
		t.Fatal(err)
	}
	v := engine.New(store.Schema, store.Stats, nil).Pin()
	w, err := workload.NewWorkload(store.Schema, 62, nQueries)
	if err != nil {
		t.Fatal(err)
	}
	opts := whatif.DefaultCandidateOptions()
	opts.MaxPerTable = 4
	cands := v.Session().GenerateCandidates(w, opts)
	if len(cands) > maxCands {
		cands = cands[:maxCands]
	}
	return v, cands, w
}

func TestGreedyImproves(t *testing.T) {
	v, cands, w := fixture(t, 12, 20)
	res, err := greedy.Advise(context.Background(), v, cands, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indexes) == 0 || res.Steps == 0 {
		t.Fatal("greedy selected nothing")
	}
	if res.Objective >= res.BaselineCost {
		t.Fatalf("objective %f >= baseline %f", res.Objective, res.BaselineCost)
	}
	if res.Improvement() <= 0 {
		t.Fatal("no improvement")
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	v, cands, w := fixture(t, 8, 16)
	var total int64
	for _, ix := range cands {
		total += ix.EstimatedPages
	}
	budget := total / 4
	res, err := greedy.Advise(context.Background(), v, cands, w, budget)
	if err != nil {
		t.Fatal(err)
	}
	var used int64
	for _, ix := range res.Indexes {
		used += ix.EstimatedPages
	}
	if used > budget {
		t.Fatalf("budget violated: %d > %d", used, budget)
	}
}

func TestGreedyNeverWorseThanBaseline(t *testing.T) {
	v, cands, w := fixture(t, 8, 10)
	for _, budget := range []int64{0, 1, 100, 100000} {
		res, err := greedy.Advise(context.Background(), v, cands, w, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective > res.BaselineCost+1e-6 {
			t.Fatalf("budget %d: objective %f > baseline %f",
				budget, res.Objective, res.BaselineCost)
		}
	}
}

func TestExhaustiveAtLeastAsGoodAsGreedy(t *testing.T) {
	v, cands, w := fixture(t, 6, 8)
	gres, err := greedy.Advise(context.Background(), v, cands, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	eres, err := greedy.Exhaustive(context.Background(), v, cands, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eres.Objective > gres.Objective+1e-6 {
		t.Fatalf("exhaustive %f worse than greedy %f", eres.Objective, gres.Objective)
	}
	if eres.BaselineCost != gres.BaselineCost {
		t.Fatalf("baselines differ: %f vs %f", eres.BaselineCost, gres.BaselineCost)
	}
}
