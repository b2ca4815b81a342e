//go:build !race

package lp

import (
	"context"
	"runtime"
	"testing"
)

// TestWarmRungAllocatesNoTableau holds a budget rung's branch-and-bound, on
// an idle workspace, to what it allocates beyond the workspace: the search's nodes,
// its incumbent and the solution. A solve allocates 2,160 B (25 nodes); the
// ceiling sits a tenth above, against the 22 KB tableau (and the rest of the
// workspace) that every solve allocated while each SolveMIP made its own, so a solve that
// allocates its buffers again trips this. (Not under -race: the detector's
// instrumentation allocates.)
func TestWarmRungAllocatesNoTableau(t *testing.T) {
	const ceilingBytes = 2400
	defer func(hook func(*workspace)) { released = hook }(released)
	released = nil
	p := cophyRung(0.5)
	SolveMIP(context.Background(), p, MIPOptions{}) // warm-up: leaves a workspace idle
	const solves = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < solves; i++ {
		SolveMIP(context.Background(), p, MIPOptions{})
	}
	runtime.ReadMemStats(&after)
	perSolve := float64(after.TotalAlloc-before.TotalAlloc) / solves
	tableau := len(new(workspace).load(p).t) * 8
	t.Logf("%.0f B a solve, ceiling %d B; the tableau alone is %d B", perSolve, ceilingBytes, tableau)
	if perSolve > ceilingBytes {
		t.Fatalf("a warm rung's solve allocates %.0f B, ceiling %d B", perSolve, ceilingBytes)
	}
}
