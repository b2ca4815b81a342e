//go:build !race

package storage

import (
	"runtime"
	"testing"
)

// TestBuildIndexAllocationCeiling guards what BuildIndex allocates over a
// 100,000-row heap (an int column of 1,000 distinct values and a float
// column), for a one-column and a two-column key: the row ids and the order
// keys it sorts, one datum a key column a row for the tree's keys, and the
// entries the leaves share. They allocate 10,469 KB and 16,725 KB; each
// ceiling sits a tenth above. While BuildIndex sorted the Key entries by
// Compare they allocated 10,848 KB and 14,753 KB: the two-column build now
// sorts twice, each pass with its own order keys and radix buffers. (Not
// under -race: the detector's instrumentation allocates.)
func TestBuildIndexAllocationCeiling(t *testing.T) {
	h := buildHeap(t, 100000, 1)
	for _, c := range []struct {
		columns   []string
		ceilingKB float64
	}{
		{[]string{"a"}, 11516},
		{[]string{"a", "b"}, 18398},
	} {
		build := func() {
			if _, err := BuildIndex("i", h, c.columns, nil); err != nil {
				t.Fatal(err)
			}
		}
		build() // warm-up
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			build()
		}
		runtime.ReadMemStats(&after)
		perRunKB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / runs
		t.Logf("%v: %.0f KB a build, ceiling %.0f KB", c.columns, perRunKB, c.ceilingKB)
		if perRunKB > c.ceilingKB {
			t.Errorf("BuildIndex(%v) over 100k rows allocates %.0f KB, ceiling %.0f KB", c.columns, perRunKB, c.ceilingKB)
		}
	}
}
