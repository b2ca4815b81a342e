package lp

import (
	"context"
	"testing"
)

// warmKnapsack builds a binary knapsack with enough structure that cold
// branch-and-bound needs several nodes.
func warmKnapsack(n int) *Problem {
	p := NewProblem(n)
	for i := 0; i < n; i++ {
		p.Binary[i] = true
		p.Objective[i] = -float64(1 + (i*5)%11)
	}
	coefs := map[int]float64{}
	for i := 0; i < n; i++ {
		coefs[i] = float64(1 + (i*3)%7)
	}
	p.AddConstraint(coefs, LE, float64(2*n/3))
	return p
}

// TestWarmStartSameOptimumFewerNodes pins the warm-start contract: seeding
// the search with the cold run's own solution reproduces the optimal
// objective while expanding no more nodes than the cold run.
func TestWarmStartSameOptimumFewerNodes(t *testing.T) {
	p := warmKnapsack(24)
	cold := SolveMIP(context.Background(), p, MIPOptions{})
	if cold.Status != StatusOptimal {
		t.Fatalf("cold status %v", cold.Status)
	}
	warm := SolveMIP(context.Background(), p, MIPOptions{WarmX: cold.X})
	if warm.Status != StatusOptimal {
		t.Fatalf("warm status %v", warm.Status)
	}
	if warm.Objective != cold.Objective {
		t.Fatalf("warm objective %v != cold %v", warm.Objective, cold.Objective)
	}
	if warm.Nodes > cold.Nodes {
		t.Fatalf("warm expanded %d nodes, cold %d — seeding made it worse", warm.Nodes, cold.Nodes)
	}
	if !warm.Proven {
		t.Fatal("warm run did not prove optimality")
	}
}

// TestWarmStartRejectsBadSeeds asserts malformed or infeasible seeds are
// ignored rather than poisoning the search.
func TestWarmStartRejectsBadSeeds(t *testing.T) {
	p := warmKnapsack(12)
	cold := SolveMIP(context.Background(), p, MIPOptions{})

	// Infeasible seed: everything selected blows the knapsack.
	all := make([]float64, p.NumVars)
	for i := range all {
		all[i] = 1
	}
	if p.FeasibleBinary(all) {
		t.Fatal("all-ones should violate the knapsack")
	}
	warm := SolveMIP(context.Background(), p, MIPOptions{WarmX: all})
	if warm.Status != StatusOptimal || warm.Objective != cold.Objective {
		t.Fatalf("infeasible seed changed the answer: %v / %v", warm.Status, warm.Objective)
	}

	// Wrong-length and fractional seeds are rejected by the validator.
	if p.FeasibleBinary([]float64{1, 0}) {
		t.Fatal("short seed accepted")
	}
	frac := make([]float64, p.NumVars)
	frac[0] = 0.5
	if p.FeasibleBinary(frac) {
		t.Fatal("fractional binary seed accepted")
	}

	// A feasible non-optimal seed is accepted and then beaten.
	one := make([]float64, p.NumVars)
	one[0] = 1
	if !p.FeasibleBinary(one) {
		t.Fatal("singleton seed should be feasible")
	}
	warm2 := SolveMIP(context.Background(), p, MIPOptions{WarmX: one})
	if warm2.Status != StatusOptimal || warm2.Objective != cold.Objective {
		t.Fatalf("suboptimal seed changed the answer: %v / %v", warm2.Status, warm2.Objective)
	}
}

// TestFeasibleBinarySumsInColumnOrder pins the warm-start check to one
// summation order. The row 1e16·x0 + x1 − 1e16·x2 <= 0.5 at x = (1, 1, 1)
// sums to 0 in column order (the 1 is absorbed by 1e16) and to 1 when x2's
// term comes before x1's, so a map-ordered sum accepted the seed on some
// runs and refused it on others.
func TestFeasibleBinarySumsInColumnOrder(t *testing.T) {
	p := NewProblem(3)
	for i := range p.Binary {
		p.Binary[i] = true
	}
	p.AddConstraint(map[int]float64{0: 1e16, 1: 1, 2: -1e16}, LE, 0.5)
	x := []float64{1, 1, 1}
	for i := 0; i < 200; i++ {
		if !p.FeasibleBinary(x) {
			t.Fatalf("try %d: the column-order sum is 0 <= 0.5, but the point was refused", i)
		}
	}
}
