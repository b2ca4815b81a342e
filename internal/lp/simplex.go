package lp

import (
	"math"
	"slices"
	"sync"
)

const (
	eps      = 1e-9
	pivotEps = 1e-7
)

// SolveLP solves the continuous relaxation of the problem: a binary
// variable is relaxed to the bounds 0 <= x <= 1.
func SolveLP(p *Problem) *Solution {
	ws := newWorkspace(p)
	defer ws.release()
	return ws.solveLP()
}

// solveLP solves the loaded problem's relaxation. The solution's X is a
// copy: the next solve reuses the workspace.
func (ws *workspace) solveLP() *Solution {
	status, obj := ws.solve()
	if status != StatusOptimal {
		return &Solution{Status: status}
	}
	return &Solution{Status: status, X: slices.Clone(ws.x), Objective: obj}
}

// workspace is the state of a bounded-variable two-phase primal simplex. A
// solve takes an idle one and loads its problem: SolveMIP fills the
// relaxation of every branch-and-bound node into the same buffers, and the
// solve's end releases the workspace, its problem dropped and its buffers
// kept for the next solve.
//
// Every column carries bounds [lo, hi]. A binary's 0 <= x <= 1 and a
// branch's fixing lo = hi = v are bounds, never rows, and a nonbasic column
// sits at one of its bounds. The tableau has one row per constraint and one
// column per structural variable and per slack of an LE or GE row. A row
// whose slack cannot start basic gets an artificial variable instead, which
// has no column: phase 1 never lets an artificial re-enter once it has left,
// so its column would never be read.
type workspace struct {
	p       *Problem
	m, n, w int       // rows, structural variables, columns
	slack   []int     // row → its slack's column; -1 for an EQ row
	t       []float64 // m × w, row-major: the current B⁻¹A
	d       []float64 // reduced costs, one per column
	xB      []float64 // the value of each row's basic variable
	basis   []int     // row → its basic column; w+i is row i's artificial
	lo, hi  []float64 // bounds, one pair per column
	upper   []bool    // a nonbasic column sits at hi rather than lo
	artHi   float64   // the artificials' upper bound: +Inf in phase 1, 0 in phase 2
	x       []float64 // the structural values of the last optimal solve
	nz      []int     // the pivot row's nonzero columns
}

// idle holds released workspaces for the next solves: at most maxIdle, none
// whose tableau outgrew maxIdleCells. It is a free list, not a sync.Pool, so
// a caller that solves one program after another (a session walking a
// budget ladder) gets its workspace back on every solve, whichever
// processor it runs on and whenever the collector runs: what a solve
// allocates does not depend on the scheduler.
var idle struct {
	sync.Mutex
	list []*workspace
}

const (
	maxIdle      = 2
	maxIdleCells = 1 << 17 // 1 MiB of tableau
)

// released, when set, sees every workspace as it is released.
var released func(*workspace)

// newWorkspace takes an idle workspace, or a new one, loaded with p.
func newWorkspace(p *Problem) *workspace {
	var ws *workspace
	idle.Lock()
	if n := len(idle.list); n > 0 {
		ws = idle.list[n-1]
		idle.list[n-1] = nil
		idle.list = idle.list[:n-1]
	}
	idle.Unlock()
	if ws == nil {
		ws = new(workspace)
	}
	return ws.load(p)
}

// release drops the workspace's problem and keeps it idle, room permitting.
func (ws *workspace) release() {
	ws.p = nil
	if released != nil {
		released(ws)
	}
	if cap(ws.t) > maxIdleCells {
		return
	}
	idle.Lock()
	if len(idle.list) < maxIdle {
		idle.list = append(idle.list, ws)
	}
	idle.Unlock()
}

// load sizes every buffer for p, reusing the ones the workspace holds, and
// clears them: a loaded workspace reads nothing of an earlier solve.
func (ws *workspace) load(p *Problem) *workspace {
	m, n := len(p.Constraints), p.NumVars
	ws.p, ws.m, ws.n = p, m, n
	ws.slack = sized(ws.slack, m)
	w := n
	for i, c := range p.Constraints {
		ws.slack[i] = -1
		if c.Sense != EQ {
			ws.slack[i] = w
			w++
		}
	}
	ws.w = w
	ws.t = sized(ws.t, m*w)
	ws.d = sized(ws.d, w)
	ws.xB = sized(ws.xB, m)
	ws.basis = sized(ws.basis, m)
	ws.lo = sized(ws.lo, w)
	ws.hi = sized(ws.hi, w)
	for j := n; j < w; j++ {
		ws.hi[j] = math.Inf(1)
	}
	ws.upper = sized(ws.upper, w)
	ws.artHi = 0
	ws.x = sized(ws.x, n)
	ws.nz = sized(ws.nz, w)[:0]
	ws.relax()
	return ws
}

// sized returns buf resized to n and cleared, reallocated only when it is
// too small.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// relax resets the structural bounds to the problem's own: x >= 0, and
// x <= 1 for a binary.
func (ws *workspace) relax() {
	for j := 0; j < ws.n; j++ {
		ws.lo[j], ws.hi[j] = 0, math.Inf(1)
		if ws.p.Binary != nil && ws.p.Binary[j] {
			ws.hi[j] = 1
		}
	}
}

// row is row i of the tableau.
func (ws *workspace) row(i int) []float64 { return ws.t[i*ws.w : (i+1)*ws.w] }

// solve solves the relaxation under the current bounds. On StatusOptimal
// the structural solution is in ws.x.
func (ws *workspace) solve() (Status, float64) {
	if ws.fill() {
		// Phase 1: minimize the sum of the artificials.
		ws.artHi = math.Inf(1)
		clear(ws.d)
		for i, b := range ws.basis {
			if b >= ws.w {
				for j, v := range ws.row(i) {
					ws.d[j] -= v
				}
			}
		}
		if !ws.iterate() {
			return StatusUnbounded, 0
		}
		infeasibility := 0.0
		for i, b := range ws.basis {
			if b >= ws.w {
				infeasibility += ws.xB[i]
			}
		}
		if infeasibility > eps {
			return StatusInfeasible, 0
		}
	}

	// Phase 2: the objective, with every artificial held at 0 (one still
	// basic sits on a redundant row).
	ws.artHi = 0
	c := ws.p.Objective
	clear(ws.d)
	copy(ws.d, c)
	for i, b := range ws.basis {
		if b < ws.n && c[b] != 0 {
			f := c[b]
			for j, v := range ws.row(i) {
				ws.d[j] -= f * v
			}
		}
	}
	if !ws.iterate() {
		return StatusUnbounded, 0
	}
	for j := range ws.x {
		ws.x[j] = ws.lo[j]
		if ws.upper[j] {
			ws.x[j] = ws.hi[j]
		}
	}
	for i, b := range ws.basis {
		if b < ws.n {
			ws.x[b] = ws.xB[i]
		}
	}
	return StatusOptimal, ws.p.ObjectiveValue(ws.x)
}

// fill writes the tableau of the relaxation under the current bounds
// straight from the problem's constraints, every structural at its lower
// bound, where row i leaves the residual r = b_i - a_i·lo. An LE row's slack
// starts basic at r when r >= 0, a GE row's surplus at -r when r <= 0 (the
// row negated, so the surplus has coefficient 1); any other row, negated
// when r < 0, starts with its artificial at |r|. fill reports whether any
// row did.
func (ws *workspace) fill() bool {
	clear(ws.t)
	clear(ws.upper)
	artificial := false
	for i, c := range ws.p.Constraints {
		row := ws.row(i)
		r := c.RHS
		for _, t := range c.Terms {
			row[t.Col] = t.Coef
			r -= t.Coef * ws.lo[t.Col]
		}
		s := ws.slack[i]
		switch c.Sense {
		case LE:
			row[s] = 1
		case GE:
			row[s] = -1
		}
		switch {
		case c.Sense == LE && r >= 0:
			ws.basis[i] = s
		case c.Sense == GE && r <= 0:
			negate(row)
			r = -r
			ws.basis[i] = s
		default:
			if r < 0 {
				negate(row)
				r = -r
			}
			ws.basis[i] = ws.w + i
			artificial = true
		}
		ws.xB[i] = r
	}
	return artificial
}

func negate(row []float64) {
	for j := range row {
		row[j] = -row[j]
	}
}

// iterate runs primal simplex steps until no column can improve the
// objective (true) or one can improve it without limit (false). A step
// moves the entering column off its bound until a basic variable reaches
// one of its bounds (a pivot) or the entering column reaches its other
// bound first (a bound flip, which changes no basis).
//
// The choice is Bland's rule over one order of moves: column j moving off
// its lower bound ranks j, off its upper bound w+j — the place the dense
// form gives that move, where it is the bound row's slack entering. The
// lowest-ranked improving move enters, and on a tied ratio the basic
// variable whose exit ranks lowest (by the move that would bring it back)
// leaves. In a degenerate cycle no value changes, so every variable keeps
// the bound it sits at and its rank; the one order then guarantees
// termination. Pricing every move off a lower bound first measured about
// a quarter fewer branch-and-bound nodes on CoPhy's programs than ranking
// both moves of a column j alike.
func (ws *workspace) iterate() bool {
	w := ws.w
	for {
		enter, dir := -1, 0.0
		for j, dj := range ws.d {
			if dj < -eps && !ws.upper[j] && ws.hi[j] > ws.lo[j] {
				enter, dir = j, 1
				break
			}
		}
		if enter < 0 {
			for j, dj := range ws.d {
				if dj > eps && ws.upper[j] {
					enter, dir = j, -1
					break
				}
			}
		}
		if enter < 0 {
			return true
		}
		step := ws.hi[enter] - ws.lo[enter] // the bound flip, which wins a tie
		leave, leaveRank := -1, -1
		for i, b := range ws.basis {
			a := dir * ws.t[i*w+enter]
			lo, hi := 0.0, ws.artHi
			if b < w {
				lo, hi = ws.lo[b], ws.hi[b]
			}
			var ratio float64
			rank := b
			switch {
			case a > pivotEps:
				ratio = (ws.xB[i] - lo) / a
			case a < -pivotEps && hi < math.Inf(1):
				ratio = (hi - ws.xB[i]) / -a
				rank += w
			default:
				continue
			}
			ratio = max(ratio, 0)
			if ratio < step-eps || (math.Abs(ratio-step) <= eps && leave >= 0 && rank < leaveRank) {
				step, leave, leaveRank = ratio, i, rank
			}
		}
		if math.IsInf(step, 1) {
			return false
		}
		if step > 0 {
			for i := range ws.xB {
				ws.xB[i] -= dir * step * ws.t[i*w+enter]
			}
		}
		if leave < 0 {
			ws.upper[enter] = !ws.upper[enter]
			continue
		}
		value := ws.lo[enter]
		if ws.upper[enter] {
			value = ws.hi[enter]
		}
		value += dir * step
		if out := ws.basis[leave]; out < w {
			ws.upper[out] = dir*ws.t[leave*w+enter] < 0
		}
		ws.pivot(leave, enter)
		ws.xB[leave] = value
		ws.upper[enter] = false
	}
}

// pivot performs a Gauss-Jordan pivot on (r, c) over the tableau and the
// reduced costs, touching only the pivot row's nonzero columns.
func (ws *workspace) pivot(r, c int) {
	pr := ws.row(r)
	inv := 1 / pr[c]
	ws.nz = ws.nz[:0]
	for j, v := range pr {
		if v != 0 {
			pr[j] = v * inv
			ws.nz = append(ws.nz, j)
		}
	}
	pr[c] = 1
	eliminate := func(ri []float64) {
		f := ri[c]
		if f == 0 {
			return
		}
		for _, j := range ws.nz {
			ri[j] -= f * pr[j]
		}
		ri[c] = 0
	}
	for i := 0; i < ws.m; i++ {
		if i != r {
			eliminate(ws.row(i))
		}
	}
	eliminate(ws.d)
	ws.basis[r] = c
}
