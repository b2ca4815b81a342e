package designer_test

import (
	"context"
	"runtime"
	"testing"

	"repro/designer"
)

// TestTunerRetainsNoCostingState guards what the benchmark's online_stream
// workload holds on the heap: a tuner keeps no costing state per statement
// it observed, because every observation prices on a pinned view of its own
// and drops it. The stream is built first and each statement priced once,
// so the statements are on the heap before the first reading together with
// the analysis each carries from its first costing (the caller's, about
// 0.7 KB a statement); the growth over ~2,000 observed statements is then
// the tuner's learning state alone: 15 KB. When the tuner's INUM entries
// lived in a cache shared across observations, the same stream grew the heap
// by 4,516 KB; the ceiling sits at a tenth of that.
func TestTunerRetainsNoCostingState(t *testing.T) {
	const ceilingKB = 450
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := d.DriftStream(7, 667)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range stream {
		if _, err := d.Cost(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	tuner := d.NewOnlineTuner(designer.DefaultTunerOptions())
	heap := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := heap()
	if _, err := tuner.ObserveAll(ctx, stream); err != nil {
		t.Fatal(err)
	}
	grownKB := (heap() - before) / 1024
	runtime.KeepAlive(stream)
	t.Logf("the heap grew %.0f KB over %d observed statements, ceiling %d KB", grownKB, len(stream), ceilingKB)
	if grownKB > ceilingKB {
		t.Fatalf("a tuner that observed %d statements retains %.0f KB, ceiling %d KB", len(stream), grownKB, ceilingKB)
	}
	tuner.Close()
}

// TestStoreRetentionCeiling guards what an opened SDSS dataset keeps on the
// heap: the store's column vectors (one kind byte and one 8-byte word a
// value), the statistics and the schema. After OpenSDSS("small", 1) and two
// GCs the heap holds 10.21 MiB more than before it, with or without -race;
// the ceiling sits a tenth above. When the store kept a []catalog.Row a
// table, 1,134,000 40-byte datums in per-row slices, the same reading was
// 47.37 MiB.
func TestStoreRetentionCeiling(t *testing.T) {
	const ceilingMiB = 11.2
	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := heap()
	d, err := designer.OpenSDSS("small", 1)
	if err != nil {
		t.Fatal(err)
	}
	grownMiB := (heap() - before) / (1 << 20)
	runtime.KeepAlive(d)
	t.Logf("an opened small SDSS dataset retains %.2f MiB, ceiling %.1f MiB", grownMiB, ceilingMiB)
	if grownMiB > ceilingMiB {
		t.Fatalf("an opened small SDSS dataset retains %.2f MiB, ceiling %.1f MiB", grownMiB, ceilingMiB)
	}
}
