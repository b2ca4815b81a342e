package cophy_test

import (
	"context"
	"testing"

	"repro/internal/cophy"
)

func TestPinnedKeysForceSelection(t *testing.T) {
	f := newFixture(t, 8, 12)
	adv := cophy.New(f.eng, f.cands)

	// Baseline without pinning.
	base, err := adv.AdviseView(context.Background(), f.v, f.w, cophy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Find a candidate the solver did NOT pick.
	var unpicked string
	selected := map[string]bool{}
	for _, ix := range base.Indexes {
		selected[ix.Key()] = true
	}
	for _, ix := range f.cands {
		if !selected[ix.Key()] {
			unpicked = ix.Key()
			break
		}
	}
	if unpicked == "" {
		t.Skip("solver selected every candidate; nothing to pin")
	}

	opts := cophy.DefaultOptions()
	opts.PinnedKeys = []string{unpicked}
	res, err := adv.AdviseView(context.Background(), f.v, f.w, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ix := range res.Indexes {
		if ix.Key() == unpicked {
			found = true
		}
	}
	if !found {
		t.Fatalf("pinned %s missing from solution", unpicked)
	}
	// Forcing a previously-unpicked index cannot beat the unconstrained
	// optimum.
	if res.Objective < base.Objective-1e-6 {
		t.Fatalf("pinned objective %f beats optimum %f", res.Objective, base.Objective)
	}
}

func TestPinnedUnknownKeyErrors(t *testing.T) {
	f := newFixture(t, 4, 8)
	adv := cophy.New(f.eng, f.cands)
	opts := cophy.DefaultOptions()
	opts.PinnedKeys = []string{"nosuch(table)"}
	if _, err := adv.AdviseView(context.Background(), f.v, f.w, opts); err == nil {
		t.Fatal("unknown pinned key should error")
	}
}

// TestAnytimeFallbackKeepsPins: when the node budget runs out before the
// branch-and-bound finds any incumbent, the advisor falls back to the empty
// design — which must still hold the pinned candidates, the only y the
// program forces to 1. A y carries no cost, so the objective is the
// baseline and every query keeps its all-sequential plan.
func TestAnytimeFallbackKeepsPins(t *testing.T) {
	f := newFixture(t, 12, 24)
	var total int64
	for _, ix := range f.cands {
		total += ix.EstimatedPages
	}
	budget := total / 10
	adv := cophy.New(f.eng, f.cands)
	fallbacks := 0
	for _, pin := range f.cands {
		if pin.EstimatedPages > budget {
			continue
		}
		for nodes := 1; nodes <= 3; nodes++ {
			opts := cophy.DefaultOptions()
			opts.StorageBudgetPages = budget
			opts.NodeBudget = nodes
			opts.PinnedKeys = []string{pin.Key()}
			res, err := adv.AdviseView(context.Background(), f.v, f.w, opts)
			if err != nil {
				t.Fatal(err)
			}
			held := false
			for _, ix := range res.Indexes {
				held = held || ix.Key() == pin.Key()
			}
			if !held {
				t.Fatalf("pin %s, node budget %d: the design %v drops the pinned candidate", pin.Key(), nodes, res.Indexes)
			}
			if res.Proven || res.Objective != res.BaselineCost {
				continue
			}
			fallbacks++
			for _, qp := range res.PerQuery {
				if len(qp.Indexes) != 0 {
					t.Fatalf("pin %s, node budget %d: fallback plan of %s uses %v", pin.Key(), nodes, qp.QueryID, qp.Indexes)
				}
			}
		}
	}
	t.Logf("%d answers fell back to the pinned empty design", fallbacks)
	if fallbacks == 0 {
		t.Fatal("no node budget of 1-3 expired before an incumbent: the fallback went untested")
	}
}
