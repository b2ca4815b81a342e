package lp

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// cophyRung is CoPhy's binary program as a budget rung writes it after its
// presolve, at the size a readvise_budget rung solves: a y column per
// candidate, then each query's plan atoms (the first uses no index) as x
// columns; the storage budget row over the y, then per query a linking row
// x <= y for every index an atom uses and the assignment row. The budget is
// share of the candidates' pages, so a share under one makes the
// branch-and-bound branch.
func cophyRung(share float64) *Problem {
	rng := rand.New(rand.NewSource(1))
	const C, Q = 8, 10
	atoms := make([]int, Q)
	n := C
	for q := range atoms {
		atoms[q] = 2 + rng.Intn(3)
		n += atoms[q]
	}
	p := NewProblem(n)
	for j := range p.Binary {
		p.Binary[j] = true
	}
	budget, total := map[int]float64{}, 0.0
	for j := 0; j < C; j++ {
		budget[j] = float64(100 + rng.Intn(900))
		total += budget[j]
	}
	p.AddConstraint(budget, LE, math.Round(share*total))
	x := C
	for q := 0; q < Q; q++ {
		weight := float64(1 + rng.Intn(3))
		base := 1000 + 1000*rng.Float64()
		assign := map[int]float64{}
		for a := 0; a < atoms[q]; a++ {
			assign[x] = 1
			p.Objective[x] = weight * base
			if a > 0 {
				p.Objective[x] = weight * base * rng.Float64()
				for _, j := range rng.Perm(C)[:1+rng.Intn(2)] {
					p.AddConstraint(map[int]float64{x: 1, j: -1}, LE, 0)
				}
			}
			x++
		}
		p.AddConstraint(assign, EQ, 1)
	}
	return p
}

// poolCase is one solve of the pooled-workspace twin test.
type poolCase struct {
	name string
	p    *Problem
	opts MIPOptions
}

// poolCases interleaves programs whose shapes grow and shrink: FuzzSolveMIP's
// corpus programs, the dense reference's random relaxations (1 to 10
// variables, up to 7 rows) and CoPhy-shaped rungs down a budget ladder, one
// of them node-limited and one warm-started.
func poolCases() []poolCase {
	var out []poolCase
	corpus := corpusPrograms()
	for _, name := range slices.Sorted(maps.Keys(corpus)) {
		out = append(out, poolCase{name: name, p: corpus[name]})
	}
	rungs := []float64{0.9, 0.5, 0.25, 0.1}
	for seed := int64(0); seed < 40; seed++ {
		p, _, _ := randomRelaxation(rand.New(rand.NewSource(seed)))
		out = append(out, poolCase{name: fmt.Sprintf("relaxation %d", seed), p: p})
		if seed%10 == 9 {
			share := rungs[seed/10]
			out = append(out, poolCase{name: fmt.Sprintf("rung %v", share), p: cophyRung(share)})
		}
	}
	out = append(out, poolCase{name: "rung 0.3, 3 nodes", p: cophyRung(0.3), opts: MIPOptions{MaxNodes: 3}})
	// A tighter rung's design fits a looser rung's budget.
	tight := SolveMIP(context.Background(), cophyRung(0.5), MIPOptions{})
	out = append(out, poolCase{name: "rung 0.9, warm", p: cophyRung(0.9), opts: MIPOptions{WarmX: tight.X}})
	return append(out, out[:3]...)
}

// freshSolve is a case's answers on a workspace that was never released.
func freshSolve(c poolCase) (*MIPSolution, *Solution) {
	mip := new(workspace).load(c.p).solveMIP(context.Background(), c.opts)
	return mip, new(workspace).load(c.p).solveLP()
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// mipDiff says how a pooled branch-and-bound answer differs from the fresh
// one ("" when it does not).
func mipDiff(got, want *MIPSolution) string {
	switch {
	case got.Status != want.Status || got.Nodes != want.Nodes || got.Proven != want.Proven:
		return fmt.Sprintf("status %v, %d nodes, proven %v; fresh %v, %d, %v",
			got.Status, got.Nodes, got.Proven, want.Status, want.Nodes, want.Proven)
	case math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		math.Float64bits(got.Bound) != math.Float64bits(want.Bound):
		return fmt.Sprintf("objective %v, bound %v; fresh %v, %v", got.Objective, got.Bound, want.Objective, want.Bound)
	case !sameBits(got.X, want.X):
		return fmt.Sprintf("x %v; fresh %v", got.X, want.X)
	}
	return ""
}

// lpDiff is mipDiff for a relaxation.
func lpDiff(got, want *Solution) string {
	if got.Status != want.Status || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || !sameBits(got.X, want.X) {
		return fmt.Sprintf("%v at %v, x %v; fresh %v at %v, x %v", got.Status, got.Objective, got.X, want.Status, want.Objective, want.X)
	}
	return ""
}

// TestPooledWorkspaceMatchesFreshWorkspace is the idle list's twin: every
// SolveMIP and SolveLP, on workspaces handed from solve to solve (and
// poisoned on the way, export_test.go), equals the same solve on a
// workspace that was never released — Float64bits on every objective,
// bound and value, exactly on status, nodes and proof — serially and from
// four goroutines, each walking the cases from its own offset. An X that
// SolveLP returned is the caller's: no later solve writes it.
func TestPooledWorkspaceMatchesFreshWorkspace(t *testing.T) {
	cases := poolCases()
	mips := make([]*MIPSolution, len(cases))
	lps := make([]*Solution, len(cases))
	for i, c := range cases {
		mips[i], lps[i] = freshSolve(c)
	}
	check := func(i int) string {
		c := cases[i]
		if d := mipDiff(SolveMIP(context.Background(), c.p, c.opts), mips[i]); d != "" {
			return fmt.Sprintf("%s: SolveMIP %s", c.name, d)
		}
		if d := lpDiff(SolveLP(c.p), lps[i]); d != "" {
			return fmt.Sprintf("%s: SolveLP %s", c.name, d)
		}
		return ""
	}

	kept := make([]*Solution, len(cases))
	for i, c := range cases {
		if d := check(i); d != "" {
			t.Fatal(d)
		}
		kept[i] = SolveLP(c.p)
	}
	for i, sol := range kept {
		if d := lpDiff(sol, lps[i]); d != "" {
			t.Fatalf("%s: a kept SolveLP answer changed under later solves: %s", cases[i].name, d)
		}
	}

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds*len(cases); k++ {
				if d := check((g*len(cases)/workers + k) % len(cases)); d != "" {
					errs <- fmt.Sprintf("goroutine %d: %s", g, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for d := range errs {
		t.Error(d)
	}
}

// BenchmarkSolveMIPRung is one budget rung's branch-and-bound on an idle
// workspace: B/op is what a solve allocates beyond the workspace.
func BenchmarkSolveMIPRung(b *testing.B) {
	defer func(hook func(*workspace)) { released = hook }(released)
	released = nil
	p := cophyRung(0.5)
	SolveMIP(context.Background(), p, MIPOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := SolveMIP(context.Background(), p, MIPOptions{}); sol.Status != StatusOptimal {
			b.Fatal(sol.Status)
		}
	}
}

// TestIdleWorkspacesAreBounded holds what the idle list keeps: after more
// workspaces than maxIdle were in use at once, at most maxIdle, and none
// whose tableau outgrew maxIdleCells, so a program solved once at that size
// is not held after its solve.
func TestIdleWorkspacesAreBounded(t *testing.T) {
	held := make([]*workspace, 2*maxIdle)
	for i := range held {
		held[i] = newWorkspace(cophyRung(0.5))
	}
	for _, ws := range held {
		ws.release()
	}
	// One row x_i <= 1 for each of 400 variables: a 400 × 800 tableau.
	big := NewProblem(400)
	for i := range big.Objective {
		big.Objective[i] = -1
		big.AddConstraint(map[int]float64{i: 1}, LE, 1)
	}
	if sol := SolveLP(big); sol.Status != StatusOptimal || sol.Objective != -400 {
		t.Fatalf("the wide program: %v at %v", sol.Status, sol.Objective)
	}
	idle.Lock()
	defer idle.Unlock()
	if len(idle.list) > maxIdle {
		t.Fatalf("%d idle workspaces, at most %d", len(idle.list), maxIdle)
	}
	for _, ws := range idle.list {
		if cap(ws.t) > maxIdleCells {
			t.Fatalf("an idle workspace holds a tableau of %d cells, at most %d", cap(ws.t), maxIdleCells)
		}
	}
}
