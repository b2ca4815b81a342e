package lp

import (
	"container/heap"
	"context"
	"math"
)

// MIPOptions tune the branch-and-bound search.
type MIPOptions struct {
	// MaxNodes bounds the number of LP relaxations solved; 0 means
	// unlimited. This is the execution-time/quality knob of E10.
	MaxNodes int
	// WarmX optionally seeds the search with a known assignment (length
	// NumVars) — typically the solution of a closely related prior solve.
	// If it is feasible and binary-integral it becomes the initial
	// incumbent, so the search starts pruning against its objective from
	// node zero instead of discovering a first incumbent the slow way. An
	// infeasible or malformed seed is ignored. Warm starts never change the
	// optimal objective — only how much of the tree must be expanded to
	// prove it.
	WarmX []float64
}

// bbNode is one branch-and-bound subproblem: its parent's fixings plus
// one more (variable v at val; the root has no parent and fixes nothing),
// and the parent's LP bound (priority).
type bbNode struct {
	parent *bbNode
	v      int
	val    float64
	bound  float64
}

// nodeQueue is a min-heap on bound (best-bound-first search).
type nodeQueue []*bbNode

func (q nodeQueue) Len() int           { return len(q) }
func (q nodeQueue) Less(i, j int) bool { return q[i].bound < q[j].bound }
func (q nodeQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x any)        { *q = append(*q, x.(*bbNode)) }
func (q *nodeQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

const intTol = 1e-6

// SolveMIP solves the problem with binary restrictions enforced by
// best-bound branch-and-bound over LP relaxations. The returned solution
// carries the proven bound, so callers can report an optimality gap even
// when the node budget cuts the search short.
//
// Every node's relaxation is solved in one workspace taken here and
// released on return: a node's fixings are bounds, set from its chain of
// parents.
//
// An integral LP solution becomes the incumbent with its binaries rounded
// and its objective recomputed on the rounded vector, so the objective
// reported for a point does not depend on the pivots that reached it.
//
// The context is checked before every node expansion: a cancelled or
// expired context aborts the search promptly (one LP relaxation at most)
// and yields StatusCancelled, regardless of whether an incumbent exists.
func SolveMIP(ctx context.Context, p *Problem, opts MIPOptions) *MIPSolution {
	ws := newWorkspace(p)
	defer ws.release()
	return ws.solveMIP(ctx, opts)
}

// solveMIP runs the branch-and-bound over the loaded problem. The solution
// holds no slice of the workspace.
func (ws *workspace) solveMIP(ctx context.Context, opts MIPOptions) *MIPSolution {
	p := ws.p
	status, rootObj := ws.solve()
	out := &MIPSolution{Solution: Solution{Status: StatusNoSolution}, Bound: math.Inf(-1)}
	if status != StatusOptimal {
		out.Status = status
		return out
	}
	out.Bound = rootObj
	// The root's solution stays in the workspace until the root, the first
	// node popped, is expanded.
	root := &bbNode{bound: rootObj}
	queue := &nodeQueue{root}

	// found says whether there is an incumbent: in a program with no
	// variables it is the empty vector.
	incumbent := math.Inf(1)
	var incumbentX []float64
	found := false
	if p.FeasibleBinary(opts.WarmX) {
		incumbent = p.ObjectiveValue(opts.WarmX)
		incumbentX = append([]float64(nil), opts.WarmX...)
		found = true
	}
	nodes := 0

	for queue.Len() > 0 {
		if ctx.Err() != nil {
			out.Status = StatusCancelled
			out.Bound = bestBound(queue, incumbent)
			out.Nodes = nodes
			return out
		}
		if opts.MaxNodes > 0 && nodes >= opts.MaxNodes {
			break
		}
		node := heap.Pop(queue).(*bbNode)
		if node.bound >= incumbent-1e-9 {
			continue // pruned by bound
		}
		obj := rootObj
		if node != root {
			ws.relax()
			for f := node; f.parent != nil; f = f.parent {
				ws.lo[f.v], ws.hi[f.v] = f.val, f.val
			}
			status, obj = ws.solve()
		}
		nodes++
		if status != StatusOptimal {
			continue // infeasible subtree
		}
		if obj >= incumbent-1e-9 {
			continue
		}
		// Find the most fractional binary variable.
		x := ws.x
		branch := -1
		worst := intTol
		for i := 0; i < p.NumVars; i++ {
			if p.Binary == nil || !p.Binary[i] {
				continue
			}
			f := x[i] - math.Floor(x[i])
			frac := math.Min(f, 1-f)
			if frac > worst {
				worst = frac
				branch = i
			}
		}
		if branch < 0 {
			// Integral: the rounded vector is a candidate incumbent.
			for i := range x {
				if p.Binary != nil && p.Binary[i] {
					x[i] = math.Round(x[i])
				}
			}
			if val := p.ObjectiveValue(x); val < incumbent {
				incumbent = val
				incumbentX = append(incumbentX[:0], x...)
				found = true
			}
			continue
		}
		// Branch x=0 and x=1.
		for v := 0.0; v <= 1; v++ {
			heap.Push(queue, &bbNode{parent: node, v: branch, val: v, bound: obj})
		}
	}

	// Final bound: min over remaining open nodes (or incumbent if closed).
	finalBound := bestBound(queue, incumbent)
	out.Bound = finalBound
	out.Nodes = nodes
	if found {
		out.X = incumbentX
		out.Objective = incumbent
		if queue.Len() == 0 || relGap(incumbent, finalBound) <= 1e-9 {
			out.Status = StatusOptimal
			out.Proven = true
			out.Bound = incumbent
		} else {
			out.Status = StatusNodeLimit
		}
		return out
	}
	if queue.Len() == 0 {
		out.Status = StatusInfeasible
	} else {
		out.Status = StatusNoSolution
	}
	return out
}

// bestBound is the minimum of open-node bounds and the incumbent.
func bestBound(queue *nodeQueue, incumbent float64) float64 {
	best := incumbent
	for _, n := range *queue {
		if n.bound < best {
			best = n.bound
		}
	}
	return best
}

// relGap is the relative incumbent/bound gap.
func relGap(incumbent, bound float64) float64 {
	if math.IsInf(incumbent, 1) {
		return math.Inf(1)
	}
	if incumbent == 0 {
		return math.Abs(incumbent - bound)
	}
	g := (incumbent - bound) / math.Abs(incumbent)
	if g < 0 {
		return 0
	}
	return g
}
