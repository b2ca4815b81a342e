package inum_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func benchSetup(b *testing.B) (*inum.Cache, []*workload.Query, []*catalog.Index, *optimizer.Env) {
	b.Helper()
	store, err := workload.Generate(workload.SmallSize(), 13)
	if err != nil {
		b.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, nil)
	w, err := workload.NewWorkload(store.Schema, 14, 12)
	if err != nil {
		b.Fatal(err)
	}
	sess := whatif.NewSessionFromEnv(env, nil)
	cands := sess.GenerateCandidates(w, whatif.DefaultCandidateOptions())
	cache := inum.New(env)
	qs := make([]*workload.Query, len(w.Queries))
	for i := range w.Queries {
		qs[i] = &w.Queries[i]
	}
	return cache, qs, cands, env
}

func BenchmarkPrepare(b *testing.B) {
	_, qs, cands, env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := inum.New(env) // fresh cache each round: measure cold prepare
		for _, q := range qs {
			if _, err := cache.Prepare(q.ID, q.Stmt, cands); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCostForWarm(b *testing.B) {
	cache, qs, cands, _ := benchSetup(b)
	var prepared []*inum.CachedQuery
	for _, q := range qs {
		cq, err := cache.Prepare(q.ID, q.Stmt, cands)
		if err != nil {
			b.Fatal(err)
		}
		prepared = append(prepared, cq)
	}
	cfg := catalog.NewConfiguration()
	for i, ix := range cands {
		if i%3 == 0 {
			cfg = cfg.WithIndex(ix)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.CostFor(prepared[i%len(prepared)], cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostForColdConfigs(b *testing.B) {
	cache, qs, cands, _ := benchSetup(b)
	var prepared []*inum.CachedQuery
	for _, q := range qs {
		cq, err := cache.Prepare(q.ID, q.Stmt, cands)
		if err != nil {
			b.Fatal(err)
		}
		prepared = append(prepared, cq)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rotate configurations so most calls miss the access memo.
		cfg := catalog.NewConfiguration()
		for j, ix := range cands {
			if (i+j)%5 == 0 {
				cfg = cfg.WithIndex(ix)
			}
		}
		if _, err := cache.CostFor(prepared[i%len(prepared)], cfg); err != nil {
			b.Fatal(err)
		}
	}
}
