package inum_test

import (
	"fmt"
	"slices"
	"strings"
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

// BenchmarkOnDemand measures the online tuner's door: per operation, one
// statement's on-demand entry, built in a fresh cache as every observation
// pins a view of its own, and the two costings an observation makes of it —
// under the live design and under the live design plus a hot candidate on
// one of the statement's tables.
func BenchmarkOnDemand(b *testing.B) {
	_, qs, cands, env := benchSetup(b)
	live := catalog.NewConfiguration()
	withCand := make([]*catalog.Configuration, len(qs))
	for i, q := range qs {
		withCand[i] = live
		for _, ix := range cands {
			if catalog.NormCol(ix.Table) == q.Stmt.Analysis().Tables[0] {
				withCand[i] = live.WithIndex(ix)
				break
			}
		}
	}
	var counters inum.Counters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(qs)
		cache := inum.New(env, &counters)
		cq, err := cache.OnDemand(qs[k].Stmt)
		if err != nil {
			b.Fatal(err)
		}
		cur, _ := cache.CostFor(cq, live)
		with, _ := cache.CostFor(cq, withCand[k])
		sink += cur + with
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

// BenchmarkCostForLayoutTrials prices AutoPart-shaped merge trials: the
// photoobj columns grouped by which queries read them, every pairwise merge
// of those fragments as a fresh layout, and each trial priced once against
// every query, as the engine's sweep does. An operation is one trial; a pass
// over the trials starts from a fresh cache, as one advise does. A trial
// moves the scan footprint of only the queries that read one of the two
// merged fragments; the others price from their tables' bases.
func BenchmarkCostForLayoutTrials(b *testing.B) {
	_, qs, cands, env := benchSetup(b)
	var cache *inum.Cache
	prepared := make([]*inum.CachedQuery, len(qs))
	prepare := func() {
		cache = inum.New(env)
		for i, q := range qs {
			cq, err := cache.Prepare(q.ID, q.Stmt, cands)
			if err != nil {
				b.Fatal(err)
			}
			prepared[i] = cq
		}
	}
	table := env.Schema.Table("photoobj")
	groups := map[string][]string{}
	var order []string
	for _, c := range table.Columns {
		lc := strings.ToLower(c.Name)
		if slices.Contains(table.PrimaryKey, lc) {
			continue
		}
		sig := ""
		for i, q := range qs {
			if q.Stmt.Analysis().ColumnsOf("photoobj")[lc] {
				sig += fmt.Sprint(i, ",")
			}
		}
		if groups[sig] == nil {
			order = append(order, sig)
		}
		groups[sig] = append(groups[sig], lc)
	}
	var frags [][]string
	for _, sig := range order {
		frags = append(frags, groups[sig])
	}
	base := catalog.NewConfiguration()
	for i, ix := range cands {
		if i%3 == 0 {
			base = base.WithIndex(ix)
		}
	}
	var trials []*catalog.Configuration
	for i := range frags {
		for j := i + 1; j < len(frags); j++ {
			merged := [][]string{append(append([]string(nil), frags[i]...), frags[j]...)}
			for k, f := range frags {
				if k != i && k != j {
					merged = append(merged, f)
				}
			}
			trial := base.Clone()
			trial.SetVertical(&catalog.VerticalLayout{Table: "photoobj", Fragments: merged})
			trials = append(trials, trial)
		}
	}
	if len(trials) == 0 {
		b.Fatal("the workload reads photoobj's columns in one pattern: no merge to try")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(trials) == 0 {
			b.StopTimer()
			prepare()
			b.StartTimer()
		}
		for _, cq := range prepared {
			c, _ := cache.CostFor(cq, trials[i%len(trials)])
			sink += c
		}
	}
}

// sink keeps the benchmarked costings from being optimized away.
var sink float64
