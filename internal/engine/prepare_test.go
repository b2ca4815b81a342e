package engine

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// countingBackend wraps a view's CostBackend and counts its Prepare calls
// into its prepareCounter — the probe for how often a sweep's prepare pass
// reaches the backend.
type countingBackend struct {
	CostBackend
	prepares *atomic.Int64
}

func (c *countingBackend) Prepare(id string, stmt *sqlparse.SelectStmt) error {
	c.prepares.Add(1)
	return c.CostBackend.Prepare(id, stmt)
}

// prepareCounter counts the Prepare calls that reach the backends of the
// views pinned through it.
type prepareCounter struct {
	prepares atomic.Int64
}

// pin pins a view whose backend counts its Prepare calls into pc.
func (pc *prepareCounter) pin(e *Engine) *View {
	v := e.Pin()
	v.backend = &countingBackend{CostBackend: v.backend, prepares: &pc.prepares}
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
// exactly once (its prepare pass makes one backend call per query), and
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
		t.Fatalf("first sweep made %d Prepare calls, want %d", got, len(w.Queries))
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
		t.Fatalf("Prepare made %d backend calls, want %d", got, len(w.Queries))
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
		t.Fatalf("post-invalidation sweep made %d Prepare calls, want %d", got, len(w.Queries))
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
