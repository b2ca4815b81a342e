package interaction_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/interaction"
)

// TestRelevancePruningSkipsDisjointPairs pins the relevance filter: index
// pairs whose tables are never co-referenced by a query are skipped without
// pricing (their doi is provably zero), while co-referenced pairs are still
// analyzed. In the fixture no query touches two tables, so of the six
// pairs only photoobj×photoobj survives.
func TestRelevancePruningSkipsDisjointPairs(t *testing.T) {
	f := newFixture(t)
	g, err := interaction.AnalyzeView(context.Background(), f.v, f.w, f.indexes, interaction.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.PrunedPairs != 5 {
		t.Fatalf("pruned %d pairs, want 5 (all but the photoobj pair)", g.PrunedPairs)
	}
	for _, e := range g.Edges {
		a, b := g.Indexes[e.A], g.Indexes[e.B]
		if !strings.EqualFold(a.Table, "photoobj") || !strings.EqualFold(b.Table, "photoobj") {
			t.Fatalf("edge across never-co-referenced tables: %s ~ %s", a.Key(), b.Key())
		}
	}
}

// TestRelevancePruningIsExact verifies the pruning theorem on a pruned pair
// by computing its lattice corners directly: for indexes on tables no query
// co-references, the four corner costs cancel to (numerically) zero doi.
func TestRelevancePruningIsExact(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	v := f.v
	if err := v.Prepare(ctx, f.w, f.indexes); err != nil {
		t.Fatal(err)
	}
	// specobj(z) × neighbors(distance): pruned by the filter above.
	a, b := f.indexes[2], f.indexes[3]
	for _, cx := range []*catalog.Configuration{
		catalog.NewConfiguration(),
		catalog.NewConfiguration().WithIndex(f.indexes[0]),
	} {
		cfgs := []*catalog.Configuration{
			cx,
			cx.WithIndex(a),
			cx.WithIndex(b),
			cx.WithIndex(a).WithIndex(b),
		}
		costs, err := v.SweepConfigs(ctx, f.w, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		d := costs[1] + costs[2] - costs[0] - costs[3]
		if d < 0 {
			d = -d
		}
		if costs[3] > 0 && d/costs[3] > 1e-9 {
			t.Fatalf("pruned pair has measurable doi %g — the relevance theorem is violated", d/costs[3])
		}
	}
}
