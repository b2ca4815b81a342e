//go:build !race

package designer_test

import (
	"context"
	"runtime"
	"testing"

	"repro/designer"
)

// TestAdviseAllocationCeiling guards what the benchmark's advise_full
// workload measures, in tier-1 and in a second: one fixed 48-statement
// script, SQL text in, full advice (partitions, interactions) and DDL out,
// on the tiny dataset. An answer allocates 6,000 KB (it repeats to a few
// KB); the ceiling sits a tenth above. The same answer allocated 45,740 KB
// while INUM rendered a configuration signature per query and table, built
// a node for every access path it then discarded and keyed its memo on
// every structure of the table, so a costing path that starts allocating
// per call again trips this long before the ceiling's slack matters. (Not
// under -race: the detector's instrumentation allocates.)
func TestAdviseAllocationCeiling(t *testing.T) {
	const ceilingKB = 6650
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := d.GenerateWorkload(7, 48)
	if err != nil {
		t.Fatal(err)
	}
	var script []string
	for _, q := range gen.Queries() {
		script = append(script, q.SQL())
	}
	answer := func() {
		w, err := d.WorkloadFromSQL(script)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := d.Advise(ctx, w, designer.AdviceOptions{Partitions: true, Interactions: true})
		if err != nil {
			t.Fatal(err)
		}
		if adv.DDL() == "" {
			t.Fatal("no DDL advised")
		}
	}
	answer() // warm-up: lazy one-time state
	const answers = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < answers; i++ {
		answer()
	}
	runtime.ReadMemStats(&after)
	perAnswerKB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / answers
	t.Logf("%.0f KB an answer, ceiling %d KB", perAnswerKB, ceilingKB)
	if perAnswerKB > ceilingKB {
		t.Fatalf("one advise answer allocates %.0f KB, ceiling %d KB", perAnswerKB, ceilingKB)
	}
}
