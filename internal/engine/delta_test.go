package engine_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
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
	return flip(rng, f.cands, cfg, k)
}

// flip flips k random memberships of the given structures.
func flip(rng *rand.Rand, cands []*catalog.Index, cfg *catalog.Configuration, k int) *catalog.Configuration {
	out := cfg
	for i := 0; i < k; i++ {
		ix := cands[rng.Intn(len(cands))]
		if out.HasIndex(ix.Key()) {
			out = out.WithoutIndex(ix.Key())
		} else {
			out = out.WithIndex(ix)
		}
	}
	return out
}

// TestEvaluateDeltaMatchesColdDifferential is the acceptance differential:
// over 400+ randomized configuration pairs, a delta evaluation seeded with
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
		// deltas, each checked against a cold run. Two siblings branch from
		// each state, and the chain goes on from the first: a delta must not
		// write the costs it shares with the state it started from.
		for _, k := range []int{1, 2, 1 + rng.Intn(4)} {
			var chainCfg *catalog.Configuration
			var chainState *engine.EvalState
			for b := 0; b < 2; b++ {
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
				if len(warm.Base) != len(cold.Base) || len(warm.New) != len(cold.New) {
					t.Fatalf("trial %d k=%d: delta prices %d/%d queries, cold %d/%d",
						trial, k, len(warm.Base), len(warm.New), len(cold.Base), len(cold.New))
				}
				for i := range cold.New {
					if warm.Base[i] != cold.Base[i] || warm.New[i] != cold.New[i] {
						t.Fatalf("trial %d k=%d query %s: delta (%v -> %v) != cold (%v -> %v)",
							trial, k, f.w.Queries[i].ID, warm.Base[i], warm.New[i], cold.Base[i], cold.New[i])
					}
				}
				if next.Recosted+next.Reused != len(f.w.Queries) {
					t.Fatalf("recosted %d + reused %d != %d queries",
						next.Recosted, next.Reused, len(f.w.Queries))
				}
				reusedTotal += next.Reused
				cases++
				if b == 0 {
					chainCfg, chainState = cfgB, next
				}
			}
			cfgA, state = chainCfg, chainState
		}
	}
	if cases < 400 {
		t.Fatalf("differential covered %d cases, want >= 400", cases)
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

// TestEvaluateDeltaReusableComparesQueries holds Reusable to the workload's
// content, member by member: a re-parse of the same queries (other trees,
// equal IDs, SQL and weights) reuses the state and prices like it; an
// edited ID, text or weight (down to one ulp, or only the sign of a zero),
// a reordered, dropped or added member does not. The state keeps its own
// copy, so a caller editing its workload in place after the evaluation does
// not make the state reusable for the edited one.
func TestEvaluateDeltaReusableComparesQueries(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	v := f.eng.Pin()
	cfg := catalog.NewConfiguration().WithIndex(f.cands[0])
	base := &workload.Workload{Queries: slices.Clone(f.w.Queries)}
	base.Queries[1].Weight = 0
	cold, state, err := v.EvaluateDelta(ctx, base, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	reparsed := &workload.Workload{}
	for _, q := range base.Queries {
		stmt, err := sqlparse.ParseSelect(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(stmt, f.eng.Schema()); err != nil {
			t.Fatal(err)
		}
		q.Stmt = stmt
		reparsed.Queries = append(reparsed.Queries, q)
	}
	if !state.Reusable(v, reparsed) {
		t.Fatal("a re-parse of the same workload does not reuse the state")
	}
	warm, next, err := v.EvaluateDelta(ctx, reparsed, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	if next.Reused != len(base.Queries) || warm.NewTotal != cold.NewTotal || warm.BaseTotal != cold.BaseTotal {
		t.Fatalf("the re-parse reused %d of %d queries and priced (%v, %v), want (%v, %v)",
			next.Reused, len(base.Queries), warm.BaseTotal, warm.NewTotal, cold.BaseTotal, cold.NewTotal)
	}

	edit := func(fn func(qs []workload.Query) []workload.Query) *workload.Workload {
		return &workload.Workload{Queries: fn(slices.Clone(base.Queries))}
	}
	for name, w := range map[string]*workload.Workload{
		"an ID": edit(func(qs []workload.Query) []workload.Query { qs[2].ID += "'"; return qs }),
		"a text": edit(func(qs []workload.Query) []workload.Query {
			qs[2].SQL = qs[3].SQL
			return qs
		}),
		"a weight by one ulp": edit(func(qs []workload.Query) []workload.Query {
			qs[2].Weight = math.Nextafter(qs[2].Weight, 2)
			return qs
		}),
		"a zero weight's sign": edit(func(qs []workload.Query) []workload.Query {
			qs[1].Weight = math.Copysign(0, -1)
			return qs
		}),
		"the order": edit(func(qs []workload.Query) []workload.Query {
			qs[0], qs[1] = qs[1], qs[0]
			return qs
		}),
		"a dropped member": edit(func(qs []workload.Query) []workload.Query { return qs[:len(qs)-1] }),
		"an added member":  edit(func(qs []workload.Query) []workload.Query { return append(qs, qs[0]) }),
	} {
		if state.Reusable(v, w) {
			t.Errorf("a workload with %s edited reuses the state", name)
		}
	}

	base.Queries[2].Weight = 3
	if state.Reusable(v, base) {
		t.Error("a workload edited in place after its evaluation reuses the state")
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

// TestEvaluateDeltaSeesInPlaceLayoutEdit: a caller may set a layout on the
// very configuration it evaluated (a design session partitions its own
// design in place), so the state must keep a copy of the configuration it
// was evaluated under, not the caller's pointer.
func TestEvaluateDeltaSeesInPlaceLayoutEdit(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	v := f.eng.Pin()
	cfg := catalog.NewConfiguration().WithIndex(f.cands[0])
	_, state, err := v.EvaluateDelta(ctx, f.w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SetHorizontal(&catalog.HorizontalLayout{Table: "photoobj", Column: "ra", Bounds: []catalog.Datum{catalog.Float(180)}})
	warm, next, err := v.EvaluateDelta(ctx, f.w, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := v.Evaluate(ctx, f.w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if next.Recosted == 0 || warm.NewTotal != cold.NewTotal {
		t.Fatalf("an in-place layout edit recosted %d queries, total %v, cold %v", next.Recosted, warm.NewTotal, cold.NewTotal)
	}
}

// relevantSignature renders the slice of cfg that can influence the access
// of the statement to its t-th table: the keys of relevant structures
// (sorted) plus any partition layouts. Two configurations with
// equal relevant signatures on every table of a query price that query
// identically. This was the delta's relevance rule, rendered per query and
// table on every evaluation; it stays here as the reference the rule that
// replaced it must agree with.
func relevantSignature(sel *sqlparse.SelectStmt, cfg *catalog.Configuration, t int) string {
	table := sel.Analysis().Tables[t]
	var parts []string
	for _, ix := range cfg.IndexesOn(table) {
		if optimizer.CanUse(sel, table, ix) {
			parts = append(parts, ix.Key())
		}
	}
	sort.Strings(parts)
	if v := cfg.VerticalOn(table); v != nil {
		parts = append(parts, v.String())
	}
	if h := cfg.HorizontalOn(table); h != nil {
		parts = append(parts, h.String())
	}
	return strings.Join(parts, ";")
}

// signatures computes every query's per-table relevant signatures for cfg.
func signatures(rels []*sqlparse.SelectStmt, cfg *catalog.Configuration) [][]string {
	out := make([][]string, len(rels))
	for i, sel := range rels {
		sigs := make([]string, len(sel.Analysis().Tables))
		for t := range sigs {
			sigs[t] = relevantSignature(sel, cfg, t)
		}
		out[i] = sigs
	}
	return out
}

// TestDeltaRelevanceMatchesSignatures holds the delta's relevance rule to
// the signature rule it replaced: over random pairs of configurations — K
// structures flipped, a layout set, dropped, replaced or re-made under a
// new pointer, a structure replaced by a same-key copy or listed twice —
// both rules must pick the same queries, in both directions.
func TestDeltaRelevanceMatchesSignatures(t *testing.T) {
	f := newFixture(t)
	w, err := workload.NewWorkload(f.eng.Schema(), 5, 240)
	if err != nil {
		t.Fatal(err)
	}
	rels := make([]*sqlparse.SelectStmt, len(w.Queries))
	for i, q := range w.Queries {
		rels[i] = q.Stmt
	}
	opts := whatif.DefaultCandidateOptions()
	opts.IncludeProjections, opts.IncludeAggViews = true, true
	cands := f.v.Session().GenerateCandidates(w, opts)
	kinds := map[catalog.StructureKind]bool{}
	for _, ix := range cands {
		kinds[ix.Kind] = true
	}
	if len(kinds) < 3 {
		t.Fatalf("candidates cover %d structure kinds, want 3", len(kinds))
	}
	verticals := []*catalog.VerticalLayout{
		{Table: "photoobj", Fragments: [][]string{{"ra", "dec"}, {"type", "psfmag_r", "psfmag_g", "run", "camcol"}}},
		{Table: "photoobj", Fragments: [][]string{{"ra", "dec", "type"}, {"psfmag_r", "psfmag_g", "run", "camcol"}}},
		{Table: "specobj", Fragments: [][]string{{"z", "zerr"}, {"class", "subclass", "plate"}}},
	}
	horizontals := []*catalog.HorizontalLayout{
		{Table: "photoobj", Column: "ra", Bounds: []catalog.Datum{catalog.Float(90), catalog.Float(180)}},
		{Table: "photoobj", Column: "ra", Bounds: []catalog.Datum{catalog.Float(120)}},
		{Table: "field", Column: "quality", Bounds: []catalog.Datum{catalog.Int(2)}},
	}
	rng := rand.New(rand.NewSource(11))
	draw := func() *catalog.Configuration {
		cfg := catalog.NewConfiguration()
		for _, ix := range cands {
			if rng.Intn(4) == 0 {
				cfg = cfg.WithIndex(ix)
			}
		}
		if rng.Intn(3) == 0 {
			cfg.SetVertical(verticals[rng.Intn(len(verticals))])
		}
		if rng.Intn(3) == 0 {
			cfg.SetHorizontal(horizontals[rng.Intn(len(horizontals))])
		}
		return cfg
	}
	// copyOf is a structure with a's key under another name and pointer.
	copyOf := func(ix *catalog.Index) *catalog.Index {
		c := *ix
		c.Name += "_copy"
		return &c
	}
	edits := []struct {
		name string
		edit func(a *catalog.Configuration) *catalog.Configuration
	}{
		{"flip K structures", func(a *catalog.Configuration) *catalog.Configuration { return flip(rng, cands, a, 1+rng.Intn(3)) }},
		{"set or replace a vertical layout", func(a *catalog.Configuration) *catalog.Configuration {
			b := a.Clone()
			b.SetVertical(verticals[rng.Intn(len(verticals))])
			return b
		}},
		{"set or replace a horizontal layout", func(a *catalog.Configuration) *catalog.Configuration {
			b := a.Clone()
			b.SetHorizontal(horizontals[rng.Intn(len(horizontals))])
			return b
		}},
		{"drop every layout", func(a *catalog.Configuration) *catalog.Configuration {
			b := catalog.NewConfiguration()
			b.Indexes = a.Indexes
			return b
		}},
		{"re-make the layouts under new pointers", func(a *catalog.Configuration) *catalog.Configuration {
			b := a.Clone()
			for k, v := range b.Vertical {
				c := *v
				b.Vertical[k] = &c
			}
			for k, h := range b.Horizontal {
				c := *h
				b.Horizontal[k] = &c
			}
			return b
		}},
		{"a same-key structure under a new pointer", func(a *catalog.Configuration) *catalog.Configuration {
			if len(a.Indexes) == 0 {
				return a.WithIndex(cands[rng.Intn(len(cands))])
			}
			ix := a.Indexes[rng.Intn(len(a.Indexes))]
			return a.WithoutIndex(ix.Key()).WithIndex(copyOf(ix))
		}},
		{"a structure listed twice", func(a *catalog.Configuration) *catalog.Configuration {
			b := a.Clone()
			if len(a.Indexes) > 0 {
				b.Indexes = append(b.Indexes, copyOf(a.Indexes[rng.Intn(len(a.Indexes))]))
			}
			return b
		}},
	}
	moved := make(map[string]int) // per edit, the trials that recost some query
	for trial := 0; trial < 700; trial++ {
		e := edits[trial%len(edits)]
		a := draw()
		b := e.edit(a)
		for _, pair := range [][2]*catalog.Configuration{{a, b}, {b, a}} {
			sa, sb := signatures(rels, pair[0]), signatures(rels, pair[1])
			var want []int
			for i := range rels {
				if !slices.Equal(sa[i], sb[i]) {
					want = append(want, i)
				}
			}
			if got := engine.AffectedQueries(w.Queries, pair[0], pair[1]); !slices.Equal(got, want) {
				t.Fatalf("trial %d (%s): the delta recosts %v, the signatures %v", trial, e.name, got, want)
			}
			if len(want) > 0 {
				moved[e.name]++
			}
		}
	}
	for _, e := range edits {
		t.Logf("%-40s %3d of %d directions recost some query", e.name, moved[e.name], 2*700/len(edits))
	}
	for _, name := range []string{"flip K structures", "set or replace a vertical layout", "set or replace a horizontal layout", "a structure listed twice"} {
		if moved[name] == 0 {
			t.Errorf("%s never recosts a query: the pairs do not exercise the rule", name)
		}
	}
}
