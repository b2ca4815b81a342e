package engine_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/workload"
)

// randomConfig draws a random subset of the candidate set (and occasionally
// a partition layout) as one configuration.
func (f *fixture) randomConfig(rng *rand.Rand) *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	for _, ix := range f.cands {
		if rng.Intn(3) == 0 {
			cfg = cfg.WithIndex(ix)
		}
	}
	return cfg
}

// mutateConfig flips K random candidate memberships — the "configuration
// differing from a previously-costed one by K indexes" shape of the
// interactive loop.
func (f *fixture) mutateConfig(rng *rand.Rand, cfg *catalog.Configuration, k int) *catalog.Configuration {
	out := cfg
	for i := 0; i < k; i++ {
		ix := f.cands[rng.Intn(len(f.cands))]
		if out.HasIndex(ix.Key()) {
			out = out.WithoutIndex(ix.Key())
		} else {
			out = out.WithIndex(ix)
		}
	}
	return out
}

// TestEvaluateDeltaMatchesColdDifferential is the acceptance differential:
// over 200+ randomized configuration pairs, a delta evaluation seeded with
// the first configuration's state must price the second configuration
// bit-identically to a cold Evaluate — per query and in total — while
// recosting only the queries whose referenced tables changed.
func TestEvaluateDeltaMatchesColdDifferential(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	v := f.eng.Pin()
	rng := rand.New(rand.NewSource(7))

	cases, reusedTotal := 0, 0
	for trial := 0; trial < 70; trial++ {
		cfgA := f.randomConfig(rng)
		_, state, err := v.EvaluateDelta(ctx, f.w, cfgA, nil)
		if err != nil {
			t.Fatal(err)
		}
		if state.Recosted != len(f.w.Queries) || state.Reused != 0 {
			t.Fatalf("cold state recosted %d / reused %d, want %d / 0",
				state.Recosted, state.Reused, len(f.w.Queries))
		}
		// Chain three mutations off one state: 1-index, 2-index, and K-index
		// deltas, each checked against a cold run.
		for _, k := range []int{1, 2, 1 + rng.Intn(4)} {
			cfgB := f.mutateConfig(rng, cfgA, k)
			warm, next, err := v.EvaluateDelta(ctx, f.w, cfgB, state)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := v.Evaluate(ctx, f.w, cfgB)
			if err != nil {
				t.Fatal(err)
			}
			if warm.BaseTotal != cold.BaseTotal || warm.NewTotal != cold.NewTotal {
				t.Fatalf("trial %d k=%d: delta totals (%v, %v) != cold (%v, %v)",
					trial, k, warm.BaseTotal, warm.NewTotal, cold.BaseTotal, cold.NewTotal)
			}
			for i := range cold.Queries {
				if warm.Queries[i] != cold.Queries[i] {
					t.Fatalf("trial %d k=%d query %s: delta %+v != cold %+v",
						trial, k, cold.Queries[i].ID, warm.Queries[i], cold.Queries[i])
				}
			}
			if next.Recosted+next.Reused != len(f.w.Queries) {
				t.Fatalf("recosted %d + reused %d != %d queries",
					next.Recosted, next.Reused, len(f.w.Queries))
			}
			reusedTotal += next.Reused
			cases++
			cfgA, state = cfgB, next
		}
	}
	if cases < 200 {
		t.Fatalf("differential covered %d cases, want >= 200", cases)
	}
	if reusedTotal == 0 {
		t.Fatal("delta evaluation never reused a query cost — relevance sets are not pruning")
	}
}

// TestEvaluateDeltaUnchangedConfigRecostsNothing pins the best case: the
// same configuration evaluated twice reuses every query.
func TestEvaluateDeltaUnchangedConfigRecostsNothing(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	v := f.eng.Pin()
	cfg := catalog.NewConfiguration().WithIndex(f.cands[0])

	cold, state, err := v.EvaluateDelta(ctx, f.w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, next, err := v.EvaluateDelta(ctx, f.w, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	if next.Recosted != 0 || next.Reused != len(f.w.Queries) {
		t.Fatalf("unchanged config recosted %d, want 0", next.Recosted)
	}
	if warm.NewTotal != cold.NewTotal || warm.BaseTotal != cold.BaseTotal {
		t.Fatalf("unchanged config changed totals: %+v vs %+v", warm, cold)
	}
}

// TestEvaluateDeltaStateInvalidation pins the safety fallbacks: a state is
// not reusable across engine generations or across workloads, and both
// cases silently fall back to a full cold evaluation.
func TestEvaluateDeltaStateInvalidation(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	cfg := catalog.NewConfiguration().WithIndex(f.cands[0])

	v := f.eng.Pin()
	_, state, err := v.EvaluateDelta(ctx, f.w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A different workload must not reuse the state.
	other, err := workload.NewWorkload(f.eng.Schema(), 99, len(f.w.Queries))
	if err != nil {
		t.Fatal(err)
	}
	if state.Reusable(v, other) {
		t.Fatal("state reusable across workloads")
	}
	rep, st2, err := v.EvaluateDelta(ctx, other, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := v.Evaluate(ctx, other, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewTotal != cold.NewTotal || st2.Recosted != len(other.Queries) {
		t.Fatal("foreign-workload delta did not fall back to a cold evaluation")
	}

	// A new engine generation must not reuse the state either.
	f.eng.SetBaseConfig(v.Base())
	v2 := f.eng.Pin()
	if state.Reusable(v2, f.w) {
		t.Fatal("state reusable across generations")
	}
}

// TestEvaluateDeltaPartitionChange asserts partition layout changes count
// as design-slice changes: a query over the partitioned table is recosted.
func TestEvaluateDeltaPartitionChange(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	v := f.eng.Pin()

	base := catalog.NewConfiguration()
	_, state, err := v.EvaluateDelta(ctx, f.w, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	part := base.Clone()
	part.SetVertical(&catalog.VerticalLayout{
		Table:     "photoobj",
		Fragments: [][]string{{"ra", "dec"}, {"type", "psfmag_r", "psfmag_g", "petror50_r", "extinction_r", "rowc", "colc", "status"}},
	})
	warm, next, err := v.EvaluateDelta(ctx, f.w, part, state)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := v.Evaluate(ctx, f.w, part)
	if err != nil {
		t.Fatal(err)
	}
	if warm.NewTotal != cold.NewTotal {
		t.Fatalf("partition delta %v != cold %v", warm.NewTotal, cold.NewTotal)
	}
	if next.Recosted == 0 {
		t.Fatal("vertical layout change recosted no queries")
	}
}
