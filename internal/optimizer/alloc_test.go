//go:build !race

package optimizer_test

import "testing"

// TestWarmCostAllocatesNothing holds a warm Cost to the allocations its
// statement makes its own, over the benchmark pairs' statements: the search
// takes its workspace from a pool, so the two- and three-way joins allocate
// nothing, and the single-table statement allocates the two values its
// index match keeps — the equality bound the composite index matched and
// the copy of the filter list the match removed a conjunct from. A search
// that starts allocating a buffer per call again trips this. (Not under
// -race: the detector makes the pool drop workspaces.)
func TestWarmCostAllocatesNothing(t *testing.T) {
	env := benchEnv(t)
	for _, c := range []struct {
		name   string
		sql    string
		allocs float64
	}{
		{"two-way join", benchTwoWayJoin, 0},
		{"three-way join", benchThreeWay, 0},
		{"single table", benchSingleTable, 2},
	} {
		sel := benchStmt(t, env, c.sql)
		got := testing.AllocsPerRun(200, func() {
			if _, err := env.Cost(sel); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.allocs {
			t.Errorf("%s: a warm Cost allocates %v times, want at most %v", c.name, got, c.allocs)
		}
	}
}
