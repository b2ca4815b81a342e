package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomRelaxation draws a small LP with rows of every sense, binary and
// continuous variables, and per-variable bounds of every kind a caller of
// the workspace sets — a branch fixing lo = hi ∈ {0, 1}, a lower bound, a
// finite upper bound on a continuous variable — in the dense reference's
// fixLo/fixHi form (-1 = free). Most rows are written through a point
// inside the bounds, so most relaxations are feasible; one row in eight
// takes a random right-hand side instead.
func randomRelaxation(rng *rand.Rand) (p *Problem, fixLo, fixHi []float64) {
	n := 1 + rng.Intn(10)
	p = NewProblem(n)
	fixLo, fixHi = make([]float64, n), make([]float64, n)
	point := make([]float64, n)
	for i := 0; i < n; i++ {
		p.Binary[i] = rng.Intn(4) != 0
		p.Objective[i] = float64(rng.Intn(21) - 10)
		fixLo[i], fixHi[i] = -1, -1
		switch rng.Intn(5) {
		case 0:
			v := float64(rng.Intn(2))
			fixLo[i], fixHi[i] = v, v
		case 1:
			if !p.Binary[i] {
				fixLo[i] = float64(1 + rng.Intn(2))
			}
		case 2:
			if !p.Binary[i] {
				fixHi[i] = float64(rng.Intn(4))
			}
		}
		lo, hi := math.Max(fixLo[i], 0), 3.0
		if p.Binary[i] {
			hi = 1
		}
		if fixHi[i] >= 0 {
			hi = fixHi[i]
		}
		point[i] = lo + float64(rng.Intn(3))/2*(hi-lo)
	}
	for c := rng.Intn(8); c > 0; c-- {
		coefs := map[int]float64{}
		at := 0.0
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				coefs[i] = float64(rng.Intn(11) - 5)
				at += coefs[i] * point[i]
			}
		}
		sense := Sense(rng.Intn(3))
		rhs := math.Round(at)
		switch {
		case rng.Intn(8) == 0:
			rhs = float64(rng.Intn(2*n+3) - n/2 - 1)
		case sense == LE:
			rhs = math.Ceil(at) + float64(rng.Intn(3))
		case sense == GE:
			rhs = math.Floor(at) - float64(rng.Intn(3))
		case sense == EQ:
			rhs = at
		}
		p.AddConstraint(coefs, sense, rhs)
	}
	return p, fixLo, fixHi
}

// solveBounded solves the relaxation under fixLo/fixHi in a workspace.
func solveBounded(p *Problem, fixLo, fixHi []float64) (*workspace, Status, float64) {
	ws := newWorkspace(p)
	for i := range fixLo {
		if fixLo[i] >= 0 {
			ws.lo[i] = fixLo[i]
		}
		if fixHi[i] >= 0 {
			ws.hi[i] = fixHi[i]
		}
	}
	status, obj := ws.solve()
	return ws, status, obj
}

// TestBoundedLPMatchesDenseReference is the bounded-variable simplex's
// differential twin: on 2,000 random relaxations it must give the dense
// reference's status and, when optimal, its objective within 1e-9 relative,
// at a point inside every bound and every row.
func TestBoundedLPMatchesDenseReference(t *testing.T) {
	counts := map[Status]int{}
	for seed := int64(0); seed < 2000; seed++ {
		p, fixLo, fixHi := randomRelaxation(rand.New(rand.NewSource(seed)))
		want := solveDense(p, fixLo, fixHi)
		ws, status, obj := solveBounded(p, fixLo, fixHi)
		counts[status]++
		if status != want.Status {
			t.Fatalf("seed %d: status %v, dense reference %v", seed, status, want.Status)
		}
		if status != StatusOptimal {
			continue
		}
		if math.Abs(obj-want.Objective) > 1e-9*math.Max(1, math.Abs(want.Objective)) {
			t.Fatalf("seed %d: objective %v, dense reference %v", seed, obj, want.Objective)
		}
		if err := violation(p, ws, 1e-7); err != "" {
			t.Fatalf("seed %d: %s", seed, err)
		}
	}
	// The draw must exercise every outcome.
	for _, s := range []Status{StatusOptimal, StatusInfeasible, StatusUnbounded} {
		if counts[s] == 0 {
			t.Fatalf("no relaxation came out %v: %v", s, counts)
		}
	}
	t.Logf("statuses over 2,000 relaxations: %v", counts)
}

// violation describes the first bound or row the workspace's solution
// breaks by more than tol, or returns "".
func violation(p *Problem, ws *workspace, tol float64) string {
	for j, v := range ws.x {
		if v < ws.lo[j]-tol || v > ws.hi[j]+tol {
			return fmt.Sprintf("x[%d] = %v outside [%v, %v]", j, v, ws.lo[j], ws.hi[j])
		}
	}
	for i, c := range p.Constraints {
		lhs := 0.0
		for _, t := range c.Terms {
			lhs += t.Coef * ws.x[t.Col]
		}
		if (c.Sense == LE && lhs > c.RHS+tol) || (c.Sense == GE && lhs < c.RHS-tol) ||
			(c.Sense == EQ && math.Abs(lhs-c.RHS) > tol) {
			return fmt.Sprintf("row %d violated: %v %v %v", i, lhs, c.Sense, c.RHS)
		}
	}
	return ""
}
