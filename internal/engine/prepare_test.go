package engine

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// prepareCounter counts the calls that reach the entry doors of the views
// pinned through it — the probe for how often a sweep's resolving pass
// asks a view's cache for a statement's entry.
type prepareCounter struct {
	prepares atomic.Int64
}

// pin pins a view whose entry door counts its calls into pc.
func (pc *prepareCounter) pin(e *Engine) *View {
	v := e.Pin()
	door := v.door
	v.door = func(c *inum.Cache, stmt *sqlparse.SelectStmt) (*inum.CachedQuery, error) {
		pc.prepares.Add(1)
		return door(c, stmt)
	}
	return v
}

// newCountingEngine builds an engine over the tiny dataset, a workload for
// it, and a Prepare counter to pin views through.
func newCountingEngine(t *testing.T) (*Engine, *workload.Workload, *prepareCounter) {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	e := New(store.Schema, store.Stats, nil)
	w, err := workload.NewWorkload(store.Schema, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	return e, w, &prepareCounter{}
}

// fullOpts reads the engine's full-optimization counter.
func fullOpts(e *Engine) int64 {
	full, _ := e.CacheStats()
	return full
}

// TestSweepPreparesWorkloadOnce is the regression test for the per-sweep
// re-prepare bug: a view's first sweep builds every query's templates
// exactly once (its resolving pass makes one entry call per query), and
// every later sweep of the same workload on the same view builds nothing —
// its prepare pass is answered from the view's cache, so the engine's
// full-optimization counter does not move.
func TestSweepPreparesWorkloadOnce(t *testing.T) {
	e, w, cb := newCountingEngine(t)
	v := cb.pin(e)
	ctx := context.Background()
	cfgs := []*catalog.Configuration{nil, catalog.NewConfiguration()}

	first, err := v.SweepConfigs(ctx, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != int64(len(w.Queries)) {
		t.Fatalf("first sweep made %d entry calls, want %d", got, len(w.Queries))
	}
	afterFirst := fullOpts(e)
	if afterFirst == 0 {
		t.Fatal("first sweep ran no full optimization: the probe cannot see a re-prepare")
	}

	for i := 0; i < 3; i++ {
		again, err := v.SweepConfigs(ctx, w, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("repeat sweep %d config %d: %v != %v", i, j, again[j], first[j])
			}
		}
	}
	if got := fullOpts(e); got != afterFirst {
		t.Fatalf("repeat sweeps re-prepared: %d full optimizations, want %d", got, afterFirst)
	}
}

// TestExplicitPrepareSkipsSweepPrepare asserts a workload prepared through
// a view's Prepare is never rebuilt by later sweeps on that view: the
// sweep's own prepare pass finds every entry in place and runs no full
// optimization.
func TestExplicitPrepareSkipsSweepPrepare(t *testing.T) {
	e, w, cb := newCountingEngine(t)
	v := cb.pin(e)
	ctx := context.Background()

	if err := v.Prepare(ctx, w, nil); err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != int64(len(w.Queries)) {
		t.Fatalf("Prepare made %d entry calls, want %d", got, len(w.Queries))
	}
	afterPrepare := fullOpts(e)
	if afterPrepare == 0 {
		t.Fatal("Prepare ran no full optimization: the probe cannot see a re-prepare")
	}
	if _, err := v.SweepConfigs(ctx, w, []*catalog.Configuration{nil}); err != nil {
		t.Fatal(err)
	}
	if got := fullOpts(e); got != afterPrepare {
		t.Fatalf("sweep after Prepare re-prepared: %d full optimizations, want %d", got, afterPrepare)
	}
}

// TestNewGenerationRePrepares asserts prepared state is view scoped: a view
// pinned after an invalidation (the same base installed again) prepares
// the workload from scratch — stale templates must never satisfy a fresh
// generation — and builds exactly what the first view built.
func TestNewGenerationRePrepares(t *testing.T) {
	e, w, cb := newCountingEngine(t)
	ctx, v := context.Background(), e.Pin()
	if _, err := v.SweepConfigs(ctx, w, []*catalog.Configuration{nil}); err != nil {
		t.Fatal(err)
	}
	built := fullOpts(e)
	e.SetBaseConfig(v.Base())
	fresh := cb.pin(e)
	if _, err := fresh.SweepConfigs(ctx, w, []*catalog.Configuration{nil}); err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != int64(len(w.Queries)) {
		t.Fatalf("post-invalidation sweep made %d entry calls, want %d", got, len(w.Queries))
	}
	if got := fullOpts(e); got != 2*built {
		t.Fatalf("post-invalidation sweep: %d full optimizations in all, want %d (the first view's %d again)", got, 2*built, built)
	}
}

// TestViewsShareNoINUMEntry asserts two views pinned on one generation own
// separate caches: view B rebuilds every entry view A built — the engine's
// counters see the same full optimizations twice — and prices the same
// costs, while A's entries still answer A without building anything.
func TestViewsShareNoINUMEntry(t *testing.T) {
	e, w, _ := newCountingEngine(t)
	ctx := context.Background()
	a, b := e.Pin(), e.Pin()
	if a.s != b.s {
		t.Fatal("two pins of one generation hold different generations")
	}
	cfgs := []*catalog.Configuration{nil, catalog.NewConfiguration()}

	costA, err := a.SweepConfigs(ctx, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	builtA := fullOpts(e)
	if builtA == 0 {
		t.Fatal("view A built nothing: the probe cannot see sharing")
	}
	costB, err := b.SweepConfigs(ctx, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fullOpts(e); got != 2*builtA {
		t.Fatalf("view B built %d full optimizations, want view A's %d: the views share entries", got-builtA, builtA)
	}
	for i := range costA {
		if costA[i] != costB[i] {
			t.Fatalf("config %d: view A %v != view B %v", i, costA[i], costB[i])
		}
	}
	if _, err := a.SweepConfigs(ctx, w, cfgs); err != nil {
		t.Fatal(err)
	}
	if got := fullOpts(e); got != 2*builtA {
		t.Fatalf("view A rebuilt its own entries: %d full optimizations, want %d", got, 2*builtA)
	}
}

// parsed parses and resolves one statement: a fresh tree nobody has keyed.
func parsed(t *testing.T, e *Engine, sql string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(stmt, e.Schema()); err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestViewBuildsEachStatementOnce holds that a view's INUM entries are keyed
// by their statements' text, never by the ids a caller gives them. One view,
// three minimal histories:
//   - two workloads numbered alike with different texts, asked about in
//     turn, build nothing after each was asked once, and price what fresh
//     views price, bit for bit;
//   - a re-parse of a workload under other ids finds the entries of the
//     first parse, the same pointers, and builds nothing;
//   - one text under 16 ids, prepared on the sweep pool with four workers,
//     costs exactly one statement's optimizations: the askers of a text wait
//     for its one builder (run it under -race -count=20; ci.yml race-soak).
func TestViewBuildsEachStatementOnce(t *testing.T) {
	e, w, _ := newCountingEngine(t)
	ctx := context.Background()
	twin, err := workload.NewWorkload(e.Schema(), 43, len(w.Queries))
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for i, q := range w.Queries {
		if twin.Queries[i].ID != q.ID {
			t.Fatalf("query %d: ids %q and %q: the workloads are not numbered alike", i, q.ID, twin.Queries[i].ID)
		}
		if twin.Queries[i].Stmt.Key() != q.Stmt.Key() {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the two workloads hold the same texts: nothing collides")
	}
	all := catalog.NewConfiguration()
	all.Indexes = e.Pin().Session().GenerateCandidates(w, whatif.DefaultCandidateOptions())
	cfgs := []*catalog.Configuration{nil, catalog.NewConfiguration(), all}

	v := e.Pin()
	workloads := []*workload.Workload{w, twin}
	want := make([][]float64, len(workloads))
	for i, x := range workloads {
		if want[i], err = e.Pin().SweepConfigs(ctx, x, cfgs); err != nil {
			t.Fatal(err)
		}
		if _, err := v.SweepConfigs(ctx, x, cfgs); err != nil {
			t.Fatal(err)
		}
	}
	primed := fullOpts(e)
	for round := 0; round < 4; round++ {
		got, err := v.SweepConfigs(ctx, workloads[round%2], cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[round%2][k]) {
				t.Fatalf("round %d configuration %d: %v, a fresh view %v", round, k, got[k], want[round%2][k])
			}
		}
	}
	if built := fullOpts(e) - primed; built != 0 {
		t.Fatalf("alternating two workloads numbered alike built %d full optimizations after priming, want 0", built)
	}

	cache := v.cache
	again := &workload.Workload{}
	for _, q := range w.Queries {
		again.Queries = append(again.Queries, workload.Query{ID: "re-" + q.ID, SQL: q.SQL, Weight: q.Weight, Stmt: parsed(t, e, q.Stmt.String())})
	}
	if err := v.Prepare(ctx, again, nil); err != nil {
		t.Fatal(err)
	}
	for i, q := range again.Queries {
		got, err := cache.OnDemand(q.Stmt)
		if err != nil {
			t.Fatal(err)
		}
		first, err := cache.OnDemand(w.Queries[i].Stmt)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Errorf("%q: the re-parse found another entry than the first parse", q.SQL)
		}
	}
	if built := fullOpts(e) - primed; built != 0 {
		t.Fatalf("a re-parse of a prepared workload built %d full optimizations, want 0", built)
	}

	const sql = "SELECT photoobj.objid, specobj.z FROM photoobj, specobj WHERE photoobj.objid = specobj.bestobjid AND specobj.z > 1 ORDER BY photoobj.ra"
	same := &workload.Workload{}
	for i := 0; i < 16; i++ {
		same.Queries = append(same.Queries, workload.Query{ID: fmt.Sprintf("same%d", i), SQL: sql, Weight: 1, Stmt: parsed(t, e, sql)})
	}
	e.SetWorkers(4)
	if err := v.Prepare(ctx, same, nil); err != nil {
		t.Fatal(err)
	}
	entry, err := inum.New(v.s.env).Prepare("", parsed(t, e, sql), nil)
	if err != nil {
		t.Fatal(err)
	}
	if entry.PrepCost() < 2 {
		t.Fatalf("the statement builds in %d optimization: too few to see a second builder", entry.PrepCost())
	}
	if built := fullOpts(e) - primed; built != int64(entry.PrepCost()) {
		t.Fatalf("one text under 16 ids built %d full optimizations, want one statement's %d", built, entry.PrepCost())
	}
}
