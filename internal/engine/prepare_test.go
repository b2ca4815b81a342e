package engine

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// countingBackend wraps a CostBackend and counts Prepare calls — the probe
// for how often a sweep's prepare pass reaches the backend.
type countingBackend struct {
	CostBackend
	prepares atomic.Int64
}

func (c *countingBackend) Prepare(id string, stmt *sqlparse.SelectStmt) error {
	c.prepares.Add(1)
	return c.CostBackend.Prepare(id, stmt)
}

// newCountingEngine builds an engine over the tiny dataset with its backend
// wrapped in a Prepare counter.
func newCountingEngine(t *testing.T) (*Engine, *workload.Workload, *countingBackend) {
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
	cb := &countingBackend{CostBackend: e.snap.backend}
	e.snap.backend = cb
	return e, w, cb
}

// TestSweepPreparesWorkloadOnce is the regression test for the per-sweep
// re-prepare bug: the first sweep builds every query's templates exactly
// once (its prepare pass makes one backend call per query), and every
// subsequent sweep of the same workload in the same generation builds
// nothing — its prepare pass is answered from the cache, so the
// full-optimization counter does not move.
func TestSweepPreparesWorkloadOnce(t *testing.T) {
	e, w, cb := newCountingEngine(t)
	ctx, v := context.Background(), e.Pin()
	cfgs := []*catalog.Configuration{nil, catalog.NewConfiguration()}

	first, err := v.SweepConfigs(ctx, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != int64(len(w.Queries)) {
		t.Fatalf("first sweep made %d Prepare calls, want %d", got, len(w.Queries))
	}
	afterFirst, _ := e.CacheStats()
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
	if got, _ := e.CacheStats(); got != afterFirst {
		t.Fatalf("repeat sweeps re-prepared: %d full optimizations, want %d", got, afterFirst)
	}
}

// TestExplicitPrepareSkipsSweepPrepare asserts a workload prepared through
// Prepare is never rebuilt by later sweeps: the sweep's own prepare pass
// finds every entry in place and runs no full optimization.
func TestExplicitPrepareSkipsSweepPrepare(t *testing.T) {
	e, w, cb := newCountingEngine(t)
	ctx, v := context.Background(), e.Pin()

	if err := v.Prepare(ctx, w, nil); err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != int64(len(w.Queries)) {
		t.Fatalf("Prepare made %d backend calls, want %d", got, len(w.Queries))
	}
	afterPrepare, _ := e.CacheStats()
	if afterPrepare == 0 {
		t.Fatal("Prepare ran no full optimization: the probe cannot see a re-prepare")
	}
	if _, err := v.SweepConfigs(ctx, w, []*catalog.Configuration{nil}); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.CacheStats(); got != afterPrepare {
		t.Fatalf("sweep after Prepare re-prepared: %d full optimizations, want %d", got, afterPrepare)
	}
}

// TestNewGenerationRePrepares asserts prepared state is generation scoped:
// after an invalidation (the same base installed again) the new snapshot
// re-prepares the workload — stale templates must never satisfy a fresh
// generation.
func TestNewGenerationRePrepares(t *testing.T) {
	e, w, _ := newCountingEngine(t)
	ctx, v := context.Background(), e.Pin()
	if _, err := v.SweepConfigs(ctx, w, []*catalog.Configuration{nil}); err != nil {
		t.Fatal(err)
	}
	e.SetBaseConfig(v.Base())
	// The rebuilt snapshot has a fresh (unwrapped) backend; count again.
	cb := &countingBackend{CostBackend: e.snap.backend}
	e.snap.backend = cb
	if _, err := e.Pin().SweepConfigs(ctx, w, []*catalog.Configuration{nil}); err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != int64(len(w.Queries)) {
		t.Fatalf("post-invalidation sweep made %d Prepare calls, want %d", got, len(w.Queries))
	}
}
