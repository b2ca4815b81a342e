package lp

import "math"

// In this package's tests every workspace is poisoned as it is released: a
// solve that reads a buffer its load did not reset reads NaN, a column
// flagged at its upper bound or a column -7.
func init() { released = poison }

// poison overwrites every buffer of the workspace, up to its capacity.
func poison(ws *workspace) {
	for _, buf := range [][]float64{ws.t, ws.d, ws.xB, ws.lo, ws.hi, ws.x} {
		overwrite(buf[:cap(buf)], math.NaN())
	}
	for _, buf := range [][]int{ws.basis, ws.slack, ws.nz} {
		overwrite(buf[:cap(buf)], -7)
	}
	overwrite(ws.upper[:cap(ws.upper)], true)
	ws.artHi = math.NaN()
	ws.m, ws.n, ws.w = -7, -7, -7
}

func overwrite[T any](buf []T, v T) {
	for i := range buf {
		buf[i] = v
	}
}
