package cophy_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/greedy"
	"repro/internal/whatif"
	"repro/internal/workload"
)

type fixture struct {
	eng   *engine.Engine
	v     *engine.View
	w     *workload.Workload
	cands []*catalog.Index
}

// newFixture builds a small advisor instance: nQueries queries and a
// candidate set capped at maxCands (so exhaustive search stays feasible).
func newFixture(t *testing.T, nQueries, maxCands int) *fixture {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 51)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(store.Schema, store.Stats, nil)
	w, err := workload.NewWorkload(store.Schema, 52, nQueries)
	if err != nil {
		t.Fatal(err)
	}
	opts := whatif.DefaultCandidateOptions()
	opts.MaxPerTable = 4
	v := eng.Pin()
	cands := v.Session().GenerateCandidates(w, opts)
	if len(cands) > maxCands {
		cands = cands[:maxCands]
	}
	return &fixture{eng: eng, v: v, w: w, cands: cands}
}

func TestAdviseImprovesWorkload(t *testing.T) {
	f := newFixture(t, 12, 24)
	adv := cophy.New(f.eng, f.cands)
	res, err := adv.AdviseView(context.Background(), f.v, f.w, cophy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indexes) == 0 {
		t.Fatal("no indexes recommended for an indexable workload")
	}
	if res.Objective >= res.BaselineCost {
		t.Fatalf("objective %f should beat baseline %f", res.Objective, res.BaselineCost)
	}
	if res.Improvement() <= 0.05 {
		t.Fatalf("improvement = %.1f%%, suspiciously low", res.Improvement()*100)
	}
	if !res.Proven {
		t.Fatal("unlimited solve should prove optimality")
	}
	if res.Gap() > 1e-6 {
		t.Fatalf("gap = %f on a proven solve", res.Gap())
	}
	if len(res.PerQuery) != len(f.w.Queries) {
		t.Fatalf("per-query plans = %d, want %d", len(res.PerQuery), len(f.w.Queries))
	}
}

// TestNegativeBudgetIsRefused: 0 is the unlimited storage budget and the
// solve-to-optimality node budget, and a negative one is a mistake, not a
// second spelling of either — it is refused before any work.
func TestNegativeBudgetIsRefused(t *testing.T) {
	f := newFixture(t, 4, 8)
	adv := cophy.New(f.eng, f.cands)
	for _, c := range []struct {
		name  string
		pages int64
		nodes int
		want  string
	}{
		{"storage -1", -1, 0, "storage budget -1 pages"},
		{"storage -1000", -1000, 0, "storage budget -1000 pages"},
		{"nodes -5", 0, -5, "node budget -5"},
	} {
		opts := cophy.DefaultOptions()
		opts.StorageBudgetPages, opts.NodeBudget = c.pages, c.nodes
		res, err := adv.AdviseView(context.Background(), f.v, f.w, opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: result %v, error %v; want an error naming %q", c.name, res, err, c.want)
		}
	}
}

// TestCoPhyMatchesExhaustive is the E7 ground-truth check: on a small
// instance the BIP solution must equal the true optimum from subset
// enumeration (both priced with the same INUM cache).
func TestCoPhyMatchesExhaustive(t *testing.T) {
	f := newFixture(t, 6, 8)
	adv := cophy.New(f.eng, f.cands)

	// Atom enumeration must be generous enough to represent every subset.
	opts := cophy.DefaultOptions()
	opts.MaxIndexesPerQueryTable = 8
	opts.MaxAtomsPerQuery = 256
	res, err := adv.AdviseView(context.Background(), f.v, f.w, opts)
	if err != nil {
		t.Fatal(err)
	}
	exh, err := greedy.Exhaustive(context.Background(), f.v, f.cands, f.w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > exh.Objective*1.0001 {
		t.Fatalf("CoPhy objective %f worse than exhaustive optimum %f",
			res.Objective, exh.Objective)
	}
}

func TestCoPhyMatchesExhaustiveUnderBudget(t *testing.T) {
	f := newFixture(t, 6, 8)
	// Budget: half of the total candidate footprint.
	var total int64
	for _, ix := range f.cands {
		total += ix.EstimatedPages
	}
	budget := total / 2

	adv := cophy.New(f.eng, f.cands)
	opts := cophy.DefaultOptions()
	opts.StorageBudgetPages = budget
	opts.MaxIndexesPerQueryTable = 8
	opts.MaxAtomsPerQuery = 256
	res, err := adv.AdviseView(context.Background(), f.v, f.w, opts)
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
	exh, err := greedy.Exhaustive(context.Background(), f.v, f.cands, f.w, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > exh.Objective*1.0001 {
		t.Fatalf("CoPhy %f worse than exhaustive %f under budget",
			res.Objective, exh.Objective)
	}
}

// TestCoPhyAtLeastAsGoodAsGreedy is the paper's headline comparison (E7).
func TestCoPhyAtLeastAsGoodAsGreedy(t *testing.T) {
	f := newFixture(t, 12, 20)
	var total int64
	for _, ix := range f.cands {
		total += ix.EstimatedPages
	}
	for _, budget := range []int64{total / 4, total / 2, total} {
		adv := cophy.New(f.eng, f.cands)
		copts := cophy.DefaultOptions()
		copts.StorageBudgetPages = budget
		copts.MaxIndexesPerQueryTable = 5
		copts.MaxAtomsPerQuery = 64
		cres, err := adv.AdviseView(context.Background(), f.v, f.w, copts)
		if err != nil {
			t.Fatal(err)
		}
		gres, err := greedy.Advise(context.Background(), f.v, f.cands, f.w, budget)
		if err != nil {
			t.Fatal(err)
		}
		if cres.Objective > gres.Objective*1.001 {
			t.Errorf("budget %d: CoPhy %f worse than greedy %f",
				budget, cres.Objective, gres.Objective)
		}
	}
}

func TestNodeBudgetProducesValidBound(t *testing.T) {
	f := newFixture(t, 10, 16)
	adv := cophy.New(f.eng, f.cands)

	full, err := adv.AdviseView(context.Background(), f.v, f.w, cophy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lopts := cophy.DefaultOptions()
	lopts.NodeBudget = 2
	limited, err := adv.AdviseView(context.Background(), f.v, f.w, lopts)
	if err != nil {
		t.Fatal(err)
	}
	// The limited bound must lower-bound the true optimum.
	if limited.Bound > full.Objective+1e-6 {
		t.Fatalf("limited bound %f exceeds optimum %f", limited.Bound, full.Objective)
	}
	// An incumbent, if any, can only be worse or equal.
	if limited.Objective < full.Objective-1e-6 {
		t.Fatalf("limited incumbent %f beats the optimum %f", limited.Objective, full.Objective)
	}
	if limited.Gap() < 0 {
		t.Fatalf("negative gap %f", limited.Gap())
	}
}

func TestAdviseBudgetZeroIsUnlimited(t *testing.T) {
	f := newFixture(t, 6, 10)
	adv := cophy.New(f.eng, f.cands)
	res, err := adv.AdviseView(context.Background(), f.v, f.w, cophy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Unlimited budget should never be worse than any budgeted run.
	opts := cophy.DefaultOptions()
	opts.StorageBudgetPages = 1 // effectively nothing fits
	tight, err := adv.AdviseView(context.Background(), f.v, f.w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > tight.Objective+1e-6 {
		t.Fatalf("unlimited %f worse than tight-budget %f", res.Objective, tight.Objective)
	}
	if len(tight.Indexes) != 0 {
		t.Fatalf("1-page budget admitted indexes: %v", tight.Indexes)
	}
	if math.Abs(tight.Objective-tight.BaselineCost) > tight.BaselineCost*0.001 {
		t.Fatalf("no-index objective %f != baseline %f", tight.Objective, tight.BaselineCost)
	}
}
