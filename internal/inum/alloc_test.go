//go:build !race

package inum_test

import (
	"math/rand"
	"testing"

	"repro/internal/inum"
)

// TestMemoHitAllocatesNothing guards the costing loop: once a query has
// priced a configuration's slices, pricing them again — against a digest or
// against the configuration itself — makes no heap allocation. (Not under
// -race: the detector's instrumentation allocates.)
func TestMemoHitAllocatesNothing(t *testing.T) {
	f := newFixture(t, 8)
	rng := rand.New(rand.NewSource(5))
	cfg := randomConfig(rng, f.cands)
	digest := inum.DigestOf(cfg)
	for _, q := range f.w.Queries {
		cq, err := f.cache.Prepare(q.ID, q.Stmt, f.cands)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.cache.CostFor(cq, cfg); err != nil { // fill the memo
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = f.cache.CostUnder(cq, digest) }); n != 0 {
			t.Errorf("%s: a memo hit against a digest makes %v allocations", q.ID, n)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = f.cache.CostFor(cq, cfg) }); n != 0 {
			t.Errorf("%s: a memo hit against the configuration makes %v allocations", q.ID, n)
		}
	}
}
