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
	if len(res.Indexes) == 0 {
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

// TestExhaustiveRefusesTooManyCandidates: past the cap Exhaustive errors
// instead of enumerating 2^n subsets. At 64 candidates 1<<n overflows to 0,
// which once priced no subset and returned +Inf with a nil error.
func TestExhaustiveRefusesTooManyCandidates(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 61)
	if err != nil {
		t.Fatal(err)
	}
	v := engine.New(store.Schema, store.Stats, nil).Pin()
	w, err := workload.NewWorkload(store.Schema, 62, 4)
	if err != nil {
		t.Fatal(err)
	}
	var cands []*catalog.Index
	for _, tbl := range store.Schema.Tables() {
		for _, col := range tbl.Columns {
			if len(cands) == 64 {
				break
			}
			ix, err := v.Session().HypotheticalIndex(tbl.Name, col.Name)
			if err != nil {
				t.Fatal(err)
			}
			cands = append(cands, ix)
		}
	}
	if len(cands) != 64 {
		t.Fatalf("the schema has %d columns, want 64", len(cands))
	}
	for _, n := range []int{greedy.MaxExhaustiveCandidates + 1, 64} {
		res, err := greedy.Exhaustive(context.Background(), v, cands[:n], w, 0)
		if err == nil {
			t.Fatalf("%d candidates: no error (objective %v)", n, res.Objective)
		}
	}
}
