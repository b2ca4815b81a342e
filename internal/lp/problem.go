// Package lp implements a bounded-variable two-phase primal simplex and a
// best-bound branch-and-bound MIP layer on top of it. It is the stdlib-only
// stand-in for the commercial "sophisticated and mature solver" CoPhy
// delegates its binary program to (paper §1, §3.2.1).
//
// A variable's bounds — a binary's 0 <= x <= 1, a branch's fixing x = v —
// are bounds, never rows: the tableau has one row per constraint, filled
// from the row's terms, which are stored in column order. A solve takes an
// idle workspace holding the tableau, basis and solution and releases it
// when it returns: every branch-and-bound node's relaxation is filled into
// it and solved from scratch, and the next solve (CoPhy's next budget rung)
// reuses its buffers. The dense form it replaced, with a row for every
// bound, is kept in the tests as the reference it is checked against.
//
// The solver targets the small-to-medium binary programs the index advisor
// produces (hundreds of variables and constraints). It reports the LP
// relaxation bound alongside the incumbent, which is what gives CoPhy its
// optimality-gap quality guarantee, and it accepts a node budget — the
// time/quality knob the paper describes ("trade off execution time against
// the quality of the suggested solutions", experiment E10).
//
// A program may have no variables at all — CoPhy's presolve writes one when
// no query's plan depends on the design and nothing is pinned. Its one point
// is the empty vector: SolveLP and SolveMIP report it optimal (proven, for
// SolveMIP) at objective 0 when every row holds at it (0 <= b for LE, and so
// on), and infeasible otherwise.
package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // Σ a_i x_i <= b
	GE              // Σ a_i x_i >= b
	EQ              // Σ a_i x_i  = b
)

// String renders the sense symbol.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Term is one nonzero coefficient of a row: Coef times variable Col.
type Term struct {
	Col  int
	Coef float64
}

// Constraint is one linear row: its nonzero terms, in column order.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
}

// Problem is a linear (or mixed binary) program in minimization form.
// Variables are continuous in [0, +inf) unless listed in Binary, which
// restricts them to {0, 1}.
type Problem struct {
	NumVars     int
	Objective   []float64 // length NumVars; minimize
	Constraints []Constraint
	Binary      []bool // length NumVars (nil = all continuous)
}

// NewProblem allocates a problem with n variables.
func NewProblem(n int) *Problem {
	return &Problem{
		NumVars:   n,
		Objective: make([]float64, n),
		Binary:    make([]bool, n),
	}
}

// AddConstraint appends a row. The map is not kept: the row stores its
// nonzero coefficients as terms sorted by column, so every sum over a row
// runs in column order whatever the map's order.
func (p *Problem) AddConstraint(coefs map[int]float64, sense Sense, rhs float64) {
	terms := make([]Term, 0, len(coefs))
	for k, v := range coefs {
		if k < 0 || k >= p.NumVars {
			panic(fmt.Sprintf("lp: variable %d out of range [0,%d)", k, p.NumVars))
		}
		if v != 0 {
			terms = append(terms, Term{Col: k, Coef: v})
		}
	}
	slices.SortFunc(terms, func(a, b Term) int { return cmp.Compare(a.Col, b.Col) })
	p.Constraints = append(p.Constraints, Constraint{Terms: terms, Sense: sense, RHS: rhs})
}

// ObjectiveValue evaluates the objective at x.
func (p *Problem) ObjectiveValue(x []float64) float64 {
	var obj float64
	for i, c := range p.Objective {
		obj += c * x[i]
	}
	return obj
}

// FeasibleBinary reports whether x is a well-formed warm-start assignment:
// the right length, within every constraint (to a small tolerance), in
// [0,1] bounds, and integral on the binary variables.
func (p *Problem) FeasibleBinary(x []float64) bool {
	const tol = 1e-6
	if len(x) != p.NumVars {
		return false
	}
	for i, v := range x {
		if v < -tol || v > 1+tol {
			return false
		}
		if p.Binary != nil && p.Binary[i] {
			f := math.Abs(v - math.Round(v))
			if f > tol {
				return false
			}
		}
	}
	for _, c := range p.Constraints {
		var lhs float64
		for _, t := range c.Terms {
			lhs += t.Coef * x[t.Col]
		}
		switch c.Sense {
		case LE:
			if lhs > c.RHS+tol {
				return false
			}
		case GE:
			if lhs < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// Status reports the outcome of a solve.
type Status int

// Solver statuses.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusNodeLimit // MIP: stopped at the node budget with an incumbent
	StatusNoSolution
	StatusCancelled // MIP: the context was cancelled mid-search
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusNodeLimit:
		return "node-limit"
	case StatusCancelled:
		return "cancelled"
	default:
		return "no-solution"
	}
}

// Solution is an LP solve result.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

// MIPSolution augments a solution with branch-and-bound telemetry.
type MIPSolution struct {
	Solution
	// Bound is the best proven lower bound on the optimum (minimization).
	Bound float64
	// Nodes is how many branch-and-bound nodes were expanded.
	Nodes int
	// Proven reports whether optimality was proven (gap closed) rather
	// than the search stopping at the node budget.
	Proven bool
}

// Gap returns the relative optimality gap (0 when proven optimal).
func (m *MIPSolution) Gap() float64 {
	if m.Status != StatusOptimal && m.Status != StatusNodeLimit {
		return math.Inf(1)
	}
	if m.Objective == 0 {
		if m.Bound == 0 {
			return 0
		}
		return math.Abs(m.Objective - m.Bound)
	}
	g := (m.Objective - m.Bound) / math.Abs(m.Objective)
	if g < 0 {
		return 0
	}
	return g
}
