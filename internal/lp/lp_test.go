package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimplexBasic(t *testing.T) {
	// min -x - 2y s.t. x + y <= 4, x <= 2  -> x=2, y=2, obj=-6
	p := NewProblem(2)
	p.Objective = []float64{-1, -2}
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 4)
	p.AddConstraint(map[int]float64{0: 1}, LE, 2)
	sol := SolveLP(p)
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almostEq(sol.Objective, -8, 1e-6) {
		// y is unbounded above only by x+y<=4; optimum puts y=4, x=0: obj=-8.
		t.Fatalf("objective = %f, want -8", sol.Objective)
	}
}

func TestSimplexEquality(t *testing.T) {
	// min x + y s.t. x + y = 3, x - y = 1 -> x=2, y=1, obj=3
	p := NewProblem(2)
	p.Objective = []float64{1, 1}
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, EQ, 3)
	p.AddConstraint(map[int]float64{0: 1, 1: -1}, EQ, 1)
	sol := SolveLP(p)
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almostEq(sol.X[0], 2, 1e-6) || !almostEq(sol.X[1], 1, 1e-6) {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestSimplexGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2 -> x=10-... optimum x=10,y=0? obj
	// 2*10=20; or y=8,x=2: 4+24=28. So x=10, y=0.
	p := NewProblem(2)
	p.Objective = []float64{2, 3}
	p.AddConstraint(map[int]float64{0: 1, 1: 1}, GE, 10)
	p.AddConstraint(map[int]float64{0: 1}, GE, 2)
	sol := SolveLP(p)
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almostEq(sol.Objective, 20, 1e-6) {
		t.Fatalf("objective = %f, want 20", sol.Objective)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.Objective = []float64{1}
	p.AddConstraint(map[int]float64{0: 1}, LE, 1)
	p.AddConstraint(map[int]float64{0: 1}, GE, 2)
	if sol := SolveLP(p); sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.Objective = []float64{-1} // min -x, x >= 0 unbounded
	if sol := SolveLP(p); sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3)
	p := NewProblem(1)
	p.Objective = []float64{1}
	p.AddConstraint(map[int]float64{0: -1}, LE, -3)
	sol := SolveLP(p)
	if sol.Status != StatusOptimal || !almostEq(sol.X[0], 3, 1e-6) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestBinaryRelaxationBounds(t *testing.T) {
	// Binary variables are relaxed to [0,1] in the LP.
	p := NewProblem(2)
	p.Objective = []float64{-1, -1}
	p.Binary[0], p.Binary[1] = true, true
	sol := SolveLP(p)
	if sol.Status != StatusOptimal || !almostEq(sol.Objective, -2, 1e-6) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestMIPKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 2 (binary): best = a+b = 16.
	p := NewProblem(3)
	p.Objective = []float64{-10, -6, -4}
	for i := range p.Binary {
		p.Binary[i] = true
	}
	p.AddConstraint(map[int]float64{0: 1, 1: 1, 2: 1}, LE, 2)
	sol := SolveMIP(context.Background(), p, MIPOptions{})
	if sol.Status != StatusOptimal || !sol.Proven {
		t.Fatalf("sol = %+v", sol)
	}
	if !almostEq(sol.Objective, -16, 1e-6) {
		t.Fatalf("objective = %f, want -16", sol.Objective)
	}
	if !almostEq(sol.X[0], 1, intTol) || !almostEq(sol.X[1], 1, intTol) || !almostEq(sol.X[2], 0, intTol) {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestMIPWeightedKnapsack(t *testing.T) {
	// Classic 0/1 knapsack where LP relaxation is fractional:
	// max 60x1 + 100x2 + 120x3, 10x1 + 20x2 + 30x3 <= 50 -> take 2,3 = 220.
	p := NewProblem(3)
	p.Objective = []float64{-60, -100, -120}
	for i := range p.Binary {
		p.Binary[i] = true
	}
	p.AddConstraint(map[int]float64{0: 10, 1: 20, 2: 30}, LE, 50)
	sol := SolveMIP(context.Background(), p, MIPOptions{})
	if !almostEq(sol.Objective, -220, 1e-6) {
		t.Fatalf("objective = %f, want -220", sol.Objective)
	}
	if sol.Gap() > 1e-9 {
		t.Fatalf("gap = %f, want 0", sol.Gap())
	}
}

func TestMIPInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.Binary[0] = true
	p.Objective = []float64{1}
	p.AddConstraint(map[int]float64{0: 1}, GE, 2) // x <= 1 binary, >= 2 impossible
	sol := SolveMIP(context.Background(), p, MIPOptions{})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v", sol.Status)
	}
}

// TestMIPWithNoVariables: a program with no variables has one point, the
// empty vector. With rows that hold at it, SolveMIP proves it optimal at
// objective 0 with or without an (empty) warm start, as SolveLP finds it;
// with a row that fails at it, both report the program infeasible.
func TestMIPWithNoVariables(t *testing.T) {
	for _, warm := range [][]float64{nil, {}} {
		p := NewProblem(0)
		p.AddConstraint(map[int]float64{}, LE, 5)
		p.AddConstraint(map[int]float64{}, EQ, 0)
		if lp := SolveLP(p); lp.Status != StatusOptimal || lp.Objective != 0 {
			t.Fatalf("SolveLP: status %v, objective %v", lp.Status, lp.Objective)
		}
		sol := SolveMIP(context.Background(), p, MIPOptions{WarmX: warm})
		if sol.Status != StatusOptimal || !sol.Proven || sol.Objective != 0 || sol.Bound != 0 || len(sol.X) != 0 {
			t.Errorf("warm %v: status %v, proven %v, objective %v, bound %v, x %v; want optimal, proven, 0, 0, []",
				warm, sol.Status, sol.Proven, sol.Objective, sol.Bound, sol.X)
		}
		p.AddConstraint(map[int]float64{}, GE, 1)
		if sol := SolveMIP(context.Background(), p, MIPOptions{WarmX: warm}); sol.Status != StatusInfeasible {
			t.Errorf("warm %v: 0 >= 1 gives status %v, want infeasible", warm, sol.Status)
		}
	}
}

func TestMIPNodeLimitReportsGap(t *testing.T) {
	// A larger knapsack; with MaxNodes=1 only the root relaxation runs, so
	// no incumbent may exist, or a weak one with nonzero gap.
	rng := rand.New(rand.NewSource(5))
	n := 20
	p := NewProblem(n)
	weights := map[int]float64{}
	for i := 0; i < n; i++ {
		p.Binary[i] = true
		p.Objective[i] = -(1 + rng.Float64()*9)
		weights[i] = 1 + rng.Float64()*9
	}
	p.AddConstraint(weights, LE, 25)
	limited := SolveMIP(context.Background(), p, MIPOptions{MaxNodes: 3})
	full := SolveMIP(context.Background(), p, MIPOptions{})
	if full.Status != StatusOptimal {
		t.Fatalf("full status = %v", full.Status)
	}
	// The limited bound must be a valid lower bound on the true optimum.
	if limited.Bound > full.Objective+1e-6 {
		t.Fatalf("limited bound %f exceeds optimum %f", limited.Bound, full.Objective)
	}
	if limited.Status == StatusOptimal && limited.Objective > full.Objective+1e-6 {
		t.Fatalf("limited incumbent %f worse than optimum but claims optimal", limited.Objective)
	}
}

// TestMIPMatchesBruteForce cross-checks branch-and-bound against exhaustive
// enumeration on random small binary programs of three shapes: LE rows
// only, rows of every sense, and CoPhy's own.
func TestMIPMatchesBruteForce(t *testing.T) {
	shapes := []struct {
		name string
		draw func(*rand.Rand) *Problem
	}{
		{"LE rows", randomLE},
		{"every sense", randomEverySense},
		{"CoPhy-shaped", randomCoPhy},
	}
	for _, shape := range shapes {
		f := func(seed int64) bool {
			p := shape.draw(rand.New(rand.NewSource(seed)))
			if why := disagreesWithBruteForce(p); why != "" {
				t.Logf("%s, seed %d: %s", shape.name, seed, why)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
	}
}

// randomLE draws up to 10 binaries under one to three LE rows with
// non-negative coefficients.
func randomLE(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(8)
	p := NewProblem(n)
	for i := 0; i < n; i++ {
		p.Binary[i] = true
		p.Objective[i] = math.Round(rng.Float64()*20 - 10) // integers avoid tie noise
	}
	for c := 0; c < 1+rng.Intn(3); c++ {
		coefs := map[int]float64{}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				coefs[i] = math.Round(rng.Float64() * 5)
			}
		}
		p.AddConstraint(coefs, LE, math.Round(rng.Float64()*float64(n)*2))
	}
	return p
}

// randomEverySense draws up to 10 binaries under one to five rows of every
// sense with signed coefficients. Most rows hold at a random binary point,
// so most programs are feasible; one row in six takes a random right-hand
// side.
func randomEverySense(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(9)
	p := NewProblem(n)
	point := make([]float64, n)
	for i := 0; i < n; i++ {
		p.Binary[i] = true
		p.Objective[i] = float64(rng.Intn(21) - 10)
		point[i] = float64(rng.Intn(2))
	}
	for c := 0; c < 1+rng.Intn(5); c++ {
		coefs := map[int]float64{}
		at := 0.0
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				coefs[i] = float64(rng.Intn(11) - 5)
				at += coefs[i] * point[i]
			}
		}
		sense := Sense(rng.Intn(3))
		switch {
		case rng.Intn(6) == 0:
			at = float64(rng.Intn(2*n+1) - n/2)
		case sense == LE:
			at += float64(rng.Intn(3))
		case sense == GE:
			at -= float64(rng.Intn(3))
		}
		p.AddConstraint(coefs, sense, at)
	}
	return p
}

// randomCoPhy draws CoPhy's binary program at toy size: index variables
// y_j, then per query a few plan atoms x_{q,p} (the first uses no index),
// an assignment row Σ_p x_{q,p} = 1 per query, a linking row x_{q,p} <= y_j
// for every index an atom uses, one storage budget row over the y_j, and
// now and then a pin y_j = 1, which can make the program infeasible.
func randomCoPhy(rng *rand.Rand) *Problem {
	C, Q := 2+rng.Intn(3), 1+rng.Intn(3)
	atoms := make([]int, Q)
	n := C
	for q := range atoms {
		atoms[q] = 1 + rng.Intn(3)
		n += atoms[q]
	}
	p := NewProblem(n)
	for j := range p.Binary {
		p.Binary[j] = true
	}
	budget, total := map[int]float64{}, 0.0
	for j := 0; j < C; j++ {
		budget[j] = float64(1 + rng.Intn(5))
		total += budget[j]
	}
	p.AddConstraint(budget, LE, float64(rng.Intn(int(total)+1)))
	x := C
	for q := 0; q < Q; q++ {
		weight := float64(1 + rng.Intn(3))
		base := float64(20 + rng.Intn(20))
		assign := map[int]float64{}
		for a := 0; a < atoms[q]; a++ {
			assign[x] = 1
			p.Objective[x] = weight * base
			if a > 0 {
				p.Objective[x] = weight * float64(1+rng.Intn(int(base)))
				for _, j := range rng.Perm(C)[:1+rng.Intn(2)] {
					p.AddConstraint(map[int]float64{x: 1, j: -1}, LE, 0)
				}
			}
			x++
		}
		p.AddConstraint(assign, EQ, 1)
	}
	if rng.Intn(3) == 0 {
		p.AddConstraint(map[int]float64{rng.Intn(C): 1}, EQ, 1)
	}
	return p
}

// disagreesWithBruteForce solves a binary program by branch-and-bound and
// by enumerating every assignment, and says how the two disagree ("" when
// they do not): on status, on the optimum (1e-6 relative), or on the
// returned point, which must be feasible, binary and carry exactly its own
// objective.
func disagreesWithBruteForce(p *Problem) string {
	sol := SolveMIP(context.Background(), p, MIPOptions{})
	best, feasible := bruteForce(p)
	switch {
	case !feasible && sol.Status != StatusInfeasible:
		return fmt.Sprintf("status %v, but no assignment is feasible", sol.Status)
	case !feasible:
		return ""
	case sol.Status != StatusOptimal || !sol.Proven:
		return fmt.Sprintf("status %v (proven %v), brute force optimum %v", sol.Status, sol.Proven, best)
	case math.Abs(sol.Objective-best) > 1e-6*math.Max(1, math.Abs(best)):
		return fmt.Sprintf("objective %v, brute force optimum %v", sol.Objective, best)
	case !p.FeasibleBinary(sol.X):
		return fmt.Sprintf("returned point %v is not a feasible binary assignment", sol.X)
	case math.Float64bits(p.ObjectiveValue(sol.X)) != math.Float64bits(sol.Objective):
		return fmt.Sprintf("objective %v, but its point's is %v", sol.Objective, p.ObjectiveValue(sol.X))
	}
	return ""
}

// bruteForce enumerates every 0/1 assignment of an all-binary program and
// returns the least objective over the feasible ones.
func bruteForce(p *Problem) (best float64, feasible bool) {
	best = math.Inf(1)
	x := make([]float64, p.NumVars)
	for mask := 0; mask < 1<<p.NumVars; mask++ {
		for i := range x {
			x[i] = float64(mask >> i & 1)
		}
		ok := true
		for _, c := range p.Constraints {
			lhs := 0.0
			for _, t := range c.Terms {
				lhs += t.Coef * x[t.Col]
			}
			switch c.Sense {
			case LE:
				ok = lhs <= c.RHS+1e-9
			case GE:
				ok = lhs >= c.RHS-1e-9
			case EQ:
				ok = math.Abs(lhs-c.RHS) <= 1e-9
			}
			if !ok {
				break
			}
		}
		if ok {
			feasible = true
			best = math.Min(best, p.ObjectiveValue(x))
		}
	}
	return best, feasible
}

// TestLPBoundBelowMIP checks the fundamental relaxation property on random
// instances: LP optimum <= MIP optimum (minimization).
func TestLPBoundBelowMIP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		p := NewProblem(n)
		for i := 0; i < n; i++ {
			p.Binary[i] = true
			p.Objective[i] = rng.Float64()*10 - 5
		}
		coefs := map[int]float64{}
		for i := 0; i < n; i++ {
			coefs[i] = rng.Float64() * 5
		}
		p.AddConstraint(coefs, LE, rng.Float64()*float64(n)*2)
		lpSol := SolveLP(p)
		mipSol := SolveMIP(context.Background(), p, MIPOptions{})
		if lpSol.Status != StatusOptimal || mipSol.Status != StatusOptimal {
			return true // degenerate; other tests cover statuses
		}
		return lpSol.Objective <= mipSol.Objective+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAddConstraintValidation(t *testing.T) {
	p := NewProblem(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range variable should panic")
		}
	}()
	p.AddConstraint(map[int]float64{5: 1}, LE, 1)
}

func TestDegenerateCycling(t *testing.T) {
	// A classic degenerate LP (Beale's example shape); Bland's rule must
	// terminate.
	p := NewProblem(4)
	p.Objective = []float64{-0.75, 150, -0.02, 6}
	p.AddConstraint(map[int]float64{0: 0.25, 1: -60, 2: -0.04, 3: 9}, LE, 0)
	p.AddConstraint(map[int]float64{0: 0.5, 1: -90, 2: -0.02, 3: 3}, LE, 0)
	p.AddConstraint(map[int]float64{2: 1}, LE, 1)
	sol := SolveLP(p)
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almostEq(sol.Objective, -0.05, 1e-6) {
		t.Fatalf("objective = %f, want -0.05", sol.Objective)
	}
}
