//go:build go1.24 && !race

package designer_test

import (
	"runtime"
	"testing"

	"repro/designer"
)

// TestWorkloadFromSQLHitAllocationCeiling guards the other half of
// TestWorkloadFromSQLAllocationCeiling: a script whose trees are all still
// held — here by the workload of the script's last parse, over HTTP by a
// session's last evaluation — is parsed by none of its 960 statements. A
// statement then allocates its member of the workload and its ID, 59 B,
// against 1,059 B for a parse; the ceiling sits a tenth above, so a front
// door that parses a held text again trips it. (Not under -race: the
// detector's instrumentation allocates.)
func TestWorkloadFromSQLHitAllocationCeiling(t *testing.T) {
	const ceilingBytes = 66
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := d.GenerateWorkload(7, 960)
	if err != nil {
		t.Fatal(err)
	}
	var script []string
	for _, q := range gen.Queries() {
		script = append(script, q.SQL())
	}
	parse := func() *designer.Workload {
		w, err := d.WorkloadFromSQL(script)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	held := parse()
	const parses = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < parses; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	perStmt := float64(after.TotalAlloc-before.TotalAlloc) / float64(parses*len(script))
	t.Logf("%.0f B a statement whose tree is held, ceiling %d B", perStmt, ceilingBytes)
	if perStmt > ceilingBytes {
		t.Fatalf("a statement whose tree is held allocates %.0f B, ceiling %d B", perStmt, ceilingBytes)
	}
}
