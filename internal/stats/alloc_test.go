//go:build !race

package stats

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/catalog"
)

// TestAnalyzeAllocationCeiling guards what ANALYZE allocates for one
// 100,000-row integer column with heavy duplicates (BenchmarkAnalyze100k's
// input): the non-null positions, their order keys and the radix sort's
// buffers, the histogram and the MCVs. It allocates 3,169 KB; the ceiling
// sits a tenth above. The same column allocated 9,507 KB while ANALYZE
// sorted (value, position) pairs by Compare and copied out the sorted
// values, and 15,907 KB while it sorted a copy of its pairs with a stable
// sort and counted distinct values in a map of every value. (Not under
// -race: the detector's instrumentation allocates.)
func TestAnalyzeAllocationCeiling(t *testing.T) {
	const ceilingKB = 3486
	rng := rand.New(rand.NewSource(1))
	cols := make([]catalog.Vector, 1)
	for range 100000 {
		cols[0].Append(catalog.Int(rng.Int63n(5000)))
	}
	table := oneColTable()
	analyze := func() {
		if _, err := Analyze(table, cols, 8192); err != nil {
			t.Fatal(err)
		}
	}
	analyze() // warm-up
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		analyze()
	}
	runtime.ReadMemStats(&after)
	perRunKB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / runs
	t.Logf("%.0f KB an ANALYZE, ceiling %d KB", perRunKB, ceilingKB)
	if perRunKB > ceilingKB {
		t.Fatalf("ANALYZE of a 100k-row column allocates %.0f KB, ceiling %d KB", perRunKB, ceilingKB)
	}
}
