// Package cophy implements the CoPhy index advisor (§3.2.1): index
// selection cast as a binary linear program. For every workload query it
// enumerates a bounded set of plan atoms (per-table index assignments),
// prices each atom with the INUM cache, and states the BIP
//
//	minimize   Σ_q w_q Σ_p c_{q,p} · x_{q,p}
//	subject to Σ_p x_{q,p} = 1                      (each query picks a plan)
//	           x_{q,p} ≤ y_j  for every index j∈p   (plans use built indexes)
//	           Σ_j size_j · y_j ≤ B                 (storage budget)
//	           x, y ∈ {0,1}
//
// solved by internal/lp's branch-and-bound. The LP relaxation bound yields
// the advertised optimality-gap guarantee, and the node budget is the
// execution-time/quality trade-off knob (experiments E7 and E10).
//
// The program handed to the solver is that BIP after an exact presolve,
// which holds only the decisions that can change the answer. Every query's
// atoms are sorted by cost, and its last, all-sequential atom (no index) is
// strictly the dearest. Three reductions:
//
//   - A candidate that no atom uses and no pin names gets no y column: its
//     y appears only in the budget row, so it could only spend budget.
//   - A query whose only atom is the all-sequential one becomes the
//     constant w_q·c_seq: its x is 1 in every feasible point.
//   - A query with exactly two atoms — the sequential one and one atom a
//     that uses a single structure j — at w_q > 0 becomes the constant
//     w_q·c_seq plus the coefficient w_q·(c_a − c_seq) < 0 on y_j. With
//     x_seq = 1 − x_a, the query costs w_q·c_seq + w_q·(c_a − c_seq)·x_a
//     under x_a ≤ y_j, so every optimum, of the LP relaxation as of the
//     binary program, has x_a = y_j: the fold loses no solution and moves
//     no bound.
//
// Every other query keeps its x columns, linking rows and assignment row.
// The answer is expanded back: a folded query takes atom a exactly when y_j
// is 1, the objective is re-summed over the chosen atoms in query order
// (the sum the unreduced program's objective is, bit for bit), and the bound
// is the solver's plus the constant.
//
// An answer is two steps: build the priced program, then solve it. Only the
// budget row, the pins and the warm start depend on the question; the
// costs c_{q,p} and the atoms' index sets depend on the view, the workload
// and the atom caps alone. So an Advisor builds the program once — prepare,
// price each query's baseline, enumerate its atoms — keeps it, and answers
// every later question about the same view, workload and caps by writing
// the rows and solving, with no pricing at all (Result.PricingCalls is 0).
// A design session keeps its advisor, and a rung of a budget ladder is one
// solve. The presolve depends on the pins, so it is redone by every solve
// and kept by none.
package cophy

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/lp"
	"repro/internal/workload"
)

// Options configure an advisor run.
type Options struct {
	// StorageBudgetPages caps the total estimated index footprint; 0 means
	// unlimited.
	StorageBudgetPages int64
	// MaxIndexesPerQueryTable bounds how many candidate indexes per
	// (query, table) slot enter atom enumeration.
	MaxIndexesPerQueryTable int
	// MaxAtomsPerQuery bounds plan atoms per query.
	MaxAtomsPerQuery int
	// NodeBudget caps branch-and-bound nodes (0 = solve to optimality).
	NodeBudget int
	// PinnedKeys forces candidates with these canonical keys
	// (table(col,...)) into the solution — the paper's interactive control
	// where the DBA seeds the search with indexes that must be kept. Pinned
	// index sizes still count against the storage budget.
	PinnedKeys []string
	// WarmStartKeys seeds the branch-and-bound with the basis of a previous
	// advice (canonical index keys): the solver starts from a feasible
	// incumbent assembled from those indexes — each query on its cheapest
	// atom supported by the basis — and only has to prove (or beat) it,
	// instead of discovering a first incumbent from scratch. This is the
	// incremental re-advise warm start; it never changes the optimal
	// objective. A basis that no longer fits (budget shrank below its
	// footprint, pinned keys outside it) is ignored.
	WarmStartKeys []string
}

// DefaultOptions returns the advisor defaults.
func DefaultOptions() Options {
	return Options{
		MaxIndexesPerQueryTable: 3,
		MaxAtomsPerQuery:        32,
	}
}

// QueryPlan records which indexes the chosen atom of a query uses and its
// estimated cost.
type QueryPlan struct {
	QueryID string
	Cost    float64
	Indexes []*catalog.Index // empty = all sequential scans
}

// Result is the advisor's recommendation.
type Result struct {
	// Indexes is the selected configuration.
	Indexes []*catalog.Index
	// Objective is the estimated weighted workload cost under Indexes.
	Objective float64
	// BaselineCost is the workload cost with no indexes at all.
	BaselineCost float64
	// Bound is the proven lower bound on the optimal objective.
	Bound float64
	// Proven reports whether the BIP was solved to optimality.
	Proven bool
	// Nodes is the number of branch-and-bound nodes expanded.
	Nodes int
	// PerQuery lists the chosen plan atom per query.
	PerQuery []QueryPlan
	// SolveTime is wall-clock time spent in the solver (excludes INUM
	// pricing).
	SolveTime time.Duration
	// PricingCalls counts INUM costings spent building the BIP: 0 when the
	// advisor's kept program answered the question.
	PricingCalls int
	// WarmStarted reports whether a WarmStartKeys basis was accepted as the
	// solver's initial incumbent.
	WarmStarted bool
}

// Gap returns the relative optimality gap of the recommendation.
func (r *Result) Gap() float64 {
	if r.Objective == 0 {
		return 0
	}
	g := (r.Objective - r.Bound) / r.Objective
	if g < 0 {
		return 0
	}
	return g
}

// Improvement returns the relative workload cost reduction vs. no indexes.
func (r *Result) Improvement() float64 {
	if r.BaselineCost == 0 {
		return 0
	}
	return (r.BaselineCost - r.Objective) / r.BaselineCost
}

// atom is one priced plan choice for a query.
type atom struct {
	cost    float64
	indexes []int // candidate ordinals used
}

// program is CoPhy's priced binary program: every coefficient of the BIP
// that no question's budget, pins or warm start changes. It was priced on
// one view, for one workload, under one pair of atom caps, and is never
// written after it is built, so concurrent solves share it.
//
// Query i's atoms are the indexes atomEnd[i-1] (0 for the first query) to
// atomEnd[i]-1 of cost, cheapest first; the last is the all-sequential
// atom, whose cost is the query's baseline. Atom a uses the candidate
// ordinals ords[ordEnd[a-1]:ordEnd[a]].
type program struct {
	view                 *engine.View
	queries              []workload.Query
	maxIndexes, maxAtoms int

	atomEnd []int32
	cost    []float64
	ordEnd  []int32
	ords    []int32
}

// atoms returns the range [lo, hi) of query i's atoms.
func (p *program) atoms(i int) (lo, hi int) {
	if i > 0 {
		lo = int(p.atomEnd[i-1])
	}
	return lo, int(p.atomEnd[i])
}

// uses returns the candidate ordinals of atom a.
func (p *program) uses(a int) []int32 {
	lo := int32(0)
	if a > 0 {
		lo = p.ordEnd[a-1]
	}
	return p.ords[lo:p.ordEnd[a]]
}

// baseline is query i's cost with no index: its all-sequential atom.
func (p *program) baseline(i int) float64 { return p.cost[p.atomEnd[i]-1] }

// folds reports whether query i leaves the tableau: it has only its
// all-sequential atom, or, at a positive weight, that atom and one atom that
// uses a single structure.
func (p *program) folds(i int) bool {
	lo, hi := p.atoms(i)
	return hi-lo == 1 || hi-lo == 2 && len(p.uses(lo)) == 1 && p.queries[i].Weight > 0
}

// prices reports whether the program is the one a question about the
// workload on the view under opts' atom caps would build.
func (p *program) prices(v *engine.View, w *workload.Workload, opts Options) bool {
	return p != nil && p.view == v &&
		p.maxIndexes == opts.MaxIndexesPerQueryTable && p.maxAtoms == opts.MaxAtomsPerQuery &&
		workload.SameQueries(p.queries, w.Queries)
}

// Advisor runs CoPhy over a fixed candidate set. It keeps the last program
// it built: a question about the same view and workload under the same
// atom caps — a design session walking a budget ladder, toggling pins —
// prices nothing and only solves. An Advisor is safe for concurrent use.
type Advisor struct {
	candidates []*catalog.Index
	last       atomic.Pointer[program]
}

// New creates an advisor over a candidate index set (typically the what-if
// session's GenerateCandidates output). The engine argument is unused: the
// advisor prices on the view AdviseView is handed.
func New(_ *engine.Engine, candidates []*catalog.Index) *Advisor {
	return &Advisor{candidates: candidates}
}

// Candidates exposes the advisor's candidate set.
func (a *Advisor) Candidates() []*catalog.Index { return a.candidates }

// AdviseView computes the recommended index set for the workload against
// one pinned engine generation: every base cost and atom sweep prices
// against the same cache/env even if the engine is reconfigured
// concurrently, and a multi-phase pipeline stays consistent across advisors
// by handing each the same view. The program is built only when the
// advisor's last one was priced for another view, workload or pair of atom
// caps; otherwise PricingCalls is 0. The context is honored through every
// phase: atom pricing aborts mid-sweep, and the branch-and-bound solver
// checks it before every node expansion — a cancelled or deadlined run
// returns ctx.Err() promptly. A negative budget is refused: 0 is the
// unlimited one.
func (a *Advisor) AdviseView(ctx context.Context, v *engine.View, w *workload.Workload, opts Options) (*Result, error) {
	switch {
	case opts.StorageBudgetPages < 0:
		return nil, fmt.Errorf("cophy: storage budget %d pages: want 0 (unlimited) or more", opts.StorageBudgetPages)
	case opts.NodeBudget < 0:
		return nil, fmt.Errorf("cophy: node budget %d: want 0 (solve to optimality) or more", opts.NodeBudget)
	}
	if opts.MaxIndexesPerQueryTable <= 0 {
		opts.MaxIndexesPerQueryTable = 3
	}
	if opts.MaxAtomsPerQuery <= 0 {
		opts.MaxAtomsPerQuery = 32
	}

	res := &Result{}
	prog := a.last.Load()
	if !prog.prices(v, w, opts) {
		var err error
		if prog, res.PricingCalls, err = a.build(ctx, v, w, opts); err != nil {
			return nil, err
		}
		a.last.Store(prog)
	}
	return a.solve(ctx, prog, opts, res)
}

// build prices the program: each query's baseline and plan atoms.
func (a *Advisor) build(ctx context.Context, v *engine.View, w *workload.Workload, opts Options) (*program, int, error) {
	// Build the INUM entries on the engine's sweep pool — template building
	// is one full optimization per seed configuration and query, which the
	// loop below would otherwise pay query by query — and number the
	// candidates, then enumerate per-query atoms.
	p, err := v.Pricing(ctx, w, a.candidates)
	if err != nil {
		return nil, 0, err
	}
	prog := &program{
		view:       v,
		queries:    slices.Clone(w.Queries),
		maxIndexes: opts.MaxIndexesPerQueryTable,
		maxAtoms:   opts.MaxAtomsPerQuery,
		atomEnd:    make([]int32, 0, len(w.Queries)),
	}
	calls := 0
	for i, q := range w.Queries {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		baseCost := p.QueryCost(i, nil)
		atoms, n, err := a.enumerateAtoms(ctx, p, i, q.Stmt.Analysis().Tables, baseCost, opts)
		if err != nil {
			return nil, 0, err
		}
		calls += 1 + n
		for _, at := range atoms {
			prog.cost = append(prog.cost, at.cost)
			for _, j := range at.indexes {
				prog.ords = append(prog.ords, int32(j))
			}
			prog.ordEnd = append(prog.ordEnd, int32(len(prog.ords)))
		}
		prog.atomEnd = append(prog.atomEnd, int32(len(prog.cost)))
	}
	// Copy out of the appends' spare capacity: a design session keeps the
	// program.
	prog.cost, prog.ordEnd, prog.ords = slices.Clone(prog.cost), slices.Clone(prog.ordEnd), slices.Clone(prog.ords)
	return prog, calls, nil
}

// solve answers one question from a priced program. It writes the BIP
// through the presolve the package comment describes — the budget row and
// the pins over the candidates that keep a y column, and the linking rows
// and assignment of each query that keeps its x columns — applies the warm
// start, runs the branch-and-bound and expands the answer back to every
// query and candidate. The presolve is recomputed here and kept nowhere.
func (a *Advisor) solve(ctx context.Context, prog *program, opts Options, res *Result) (*Result, error) {
	for i, q := range prog.queries {
		res.BaselineCost += prog.baseline(i) * q.Weight
	}
	C := len(a.candidates)
	pinned := make([]bool, C)
	if keys := keySet(opts.PinnedKeys); len(keys) > 0 {
		matched := 0
		for j, ix := range a.candidates {
			if keys[ix.Key()] {
				pinned[j] = true
				matched++
			}
		}
		if matched < len(keys) {
			return nil, fmt.Errorf("cophy: %d pinned keys do not match any candidate", len(keys)-matched)
		}
	}

	// Columns: a y for each candidate that an atom uses or a pin names, in
	// candidate order (ycol[j] is -1 for the others), then the x columns of
	// each query that does not fold, its atoms in order from xcol[i] (-1
	// for a query that folds). constant is what the folded queries add to
	// every design's objective.
	ycol := make([]int, C)
	for _, j := range prog.ords {
		ycol[j] = 1
	}
	n := 0
	for j := range ycol {
		if ycol[j] == 0 && !pinned[j] {
			ycol[j] = -1
			continue
		}
		ycol[j] = n
		n++
	}
	xcol := make([]int, len(prog.queries))
	constant := 0.0
	for i, q := range prog.queries {
		lo, hi := prog.atoms(i)
		if prog.folds(i) {
			constant += prog.baseline(i) * q.Weight
			xcol[i] = -1
			continue
		}
		xcol[i] = n
		n += hi - lo
	}

	p := lp.NewProblem(n)
	for j := range p.Binary {
		p.Binary[j] = true
	}
	// Storage budget over y.
	if opts.StorageBudgetPages > 0 {
		coefs := map[int]float64{}
		for j, ix := range a.candidates {
			if ycol[j] >= 0 {
				coefs[ycol[j]] = float64(ix.EstimatedPages)
			}
		}
		p.AddConstraint(coefs, lp.LE, float64(opts.StorageBudgetPages))
	}
	// Pinned candidates: y_j = 1.
	for j := range pinned {
		if pinned[j] {
			p.AddConstraint(map[int]float64{ycol[j]: 1}, lp.EQ, 1)
		}
	}
	for i, q := range prog.queries {
		lo, hi := prog.atoms(i)
		if xcol[i] < 0 {
			// A folded query with an index atom prices it on that atom's y.
			if hi-lo == 2 {
				y := ycol[prog.uses(lo)[0]]
				p.Objective[y] += (prog.cost[lo] - prog.cost[lo+1]) * q.Weight
			}
			continue
		}
		// Assignment: exactly one atom.
		assign := make(map[int]float64, hi-lo)
		for at := lo; at < hi; at++ {
			xv := xcol[i] + at - lo
			assign[xv] = 1
			p.Objective[xv] = prog.cost[at] * q.Weight
			// Linking constraints.
			for _, j := range prog.uses(at) {
				p.AddConstraint(map[int]float64{xv: 1, ycol[j]: -1}, lp.LE, 0)
			}
		}
		p.AddConstraint(assign, lp.EQ, 1)
	}

	// Warm start: assemble a feasible incumbent from the previous advice's
	// basis. For each query pick its cheapest atom fully supported by the
	// basis (the all-sequential atom always qualifies), then open exactly
	// the y variables those atoms use plus any pinned candidates. The seed
	// is vetted by the solver (budget, pins) and ignored if stale.
	var warmX []float64
	if keys := keySet(opts.WarmStartKeys); len(keys) > 0 {
		inBasis := make([]bool, C)
		for j, ix := range a.candidates {
			inBasis[j] = keys[ix.Key()]
		}
		warmX = make([]float64, n)
		for j := range pinned {
			if pinned[j] {
				warmX[ycol[j]] = 1
			}
		}
		for i := range prog.queries {
			lo, hi := prog.atoms(i)
			for at := lo; at < hi; at++ { // atoms are sorted cheapest-first
				if !supported(prog.uses(at), inBasis) {
					continue
				}
				if xcol[i] >= 0 {
					warmX[xcol[i]+at-lo] = 1
				}
				for _, j := range prog.uses(at) {
					warmX[ycol[j]] = 1
				}
				break
			}
		}
		if p.FeasibleBinary(warmX) {
			res.WarmStarted = true
		} else {
			warmX = nil
		}
	}

	start := time.Now()
	sol := lp.SolveMIP(ctx, p, lp.MIPOptions{MaxNodes: opts.NodeBudget, WarmX: warmX})
	res.SolveTime = time.Since(start)
	switch sol.Status {
	case lp.StatusOptimal, lp.StatusNodeLimit:
	case lp.StatusCancelled:
		return nil, ctx.Err()
	case lp.StatusNoSolution:
		// The node budget expired before any incumbent was found. The
		// empty design plus the pins is always feasible (the root
		// relaxation fits the pins in the budget), so fall back to it —
		// the anytime behaviour a time-boxed advisor must have (E10): every
		// query keeps its all-sequential atom, and the objective is the
		// baseline.
		sol.X = make([]float64, n)
	default:
		return nil, fmt.Errorf("cophy: solver returned %v", sol.Status)
	}
	res.Proven, res.Nodes = sol.Proven, sol.Nodes

	// Expand the per-query plans, then the configuration: the indexes the
	// chosen plans use, plus the pinned candidates. A y_j has objective 0
	// unless a folded query prices on it, so under a budget the solver may
	// leave one at 1 that no chosen plan uses; advising it would fill budget
	// for nothing. The objective sums the chosen plans in query order, the
	// sum the unreduced program's objective is.
	used := slices.Clone(pinned)
	res.PerQuery = make([]QueryPlan, 0, len(prog.queries))
	for i, q := range prog.queries {
		lo, hi := prog.atoms(i)
		at := hi - 1
		switch {
		case xcol[i] >= 0:
			for k := lo; k < hi; k++ {
				if sol.X[xcol[i]+k-lo] > 0.5 {
					at = k
					break
				}
			}
		case hi-lo == 2:
			if sol.X[ycol[prog.uses(lo)[0]]] > 0.5 {
				at = lo
			}
		}
		qp := QueryPlan{QueryID: q.ID, Cost: prog.cost[at]}
		for _, j := range prog.uses(at) {
			used[j] = true
			qp.Indexes = append(qp.Indexes, a.candidates[j])
		}
		res.PerQuery = append(res.PerQuery, qp)
		res.Objective += prog.cost[at] * q.Weight
	}
	res.Indexes = a.chosen(used)
	// The solver's bound is over the reduced objective. A proven answer's
	// bound is its objective, and no bound exceeds the objective of a design
	// the solve found: the sum with the constant rounds apart from the
	// objective's own in the last bits.
	res.Bound = min(sol.Bound+constant, res.Objective)
	if res.Proven {
		res.Bound = res.Objective
	}
	return res, nil
}

// chosen returns the candidates marked in pick, sorted by key.
func (a *Advisor) chosen(pick []bool) []*catalog.Index {
	var out []*catalog.Index
	for j, ix := range a.candidates {
		if pick[j] {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// supported reports whether every candidate an atom uses is in the basis.
func supported(uses []int32, inBasis []bool) bool {
	for _, j := range uses {
		if !inBasis[j] {
			return false
		}
	}
	return true
}

// keySet is a set of canonical index keys, lower-cased.
func keySet(keys []string) map[string]bool {
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[strings.ToLower(k)] = true
	}
	return set
}

// enumerateAtoms prices the plan atoms of query i: the all-sequential atom
// plus cartesian combinations of the top candidate indexes per table. Both
// pricing phases — singleton ranking and combo evaluation — run as
// parallel sweeps of candidate sets; the resulting atom set is identical to
// the serial enumeration because candidates are ranked and filtered in
// ordinal order.
func (a *Advisor) enumerateAtoms(ctx context.Context, p *engine.Pricing, i int, qTables []string, baseCost float64, opts Options) ([]atom, int, error) {
	calls := 0
	// Rank candidates per referenced table by single-index benefit, priced
	// in one parallel sweep over the singletons.
	type ranked struct {
		ordinal int
		benefit float64
	}
	var refOrdinals []int
	for j, ix := range a.candidates {
		if slices.Contains(qTables, strings.ToLower(ix.Table)) {
			refOrdinals = append(refOrdinals, j)
		}
	}
	singletons := make([][]int, len(refOrdinals))
	for k := range refOrdinals {
		singletons[k] = refOrdinals[k : k+1 : k+1]
	}
	singleCosts, err := p.SweepQuery(ctx, i, singletons)
	if err != nil {
		return nil, calls, err
	}
	calls += len(singletons)
	perTable := map[string][]ranked{}
	for k, j := range refOrdinals {
		if b := baseCost - singleCosts[k]; b > 1e-9 {
			lt := strings.ToLower(a.candidates[j].Table)
			perTable[lt] = append(perTable[lt], ranked{ordinal: j, benefit: b})
		}
	}
	var tables []string
	for t := range perTable {
		list := perTable[t]
		sort.Slice(list, func(x, y int) bool {
			if list[x].benefit != list[y].benefit {
				return list[x].benefit > list[y].benefit
			}
			return list[x].ordinal < list[y].ordinal
		})
		if len(list) > opts.MaxIndexesPerQueryTable {
			list = list[:opts.MaxIndexesPerQueryTable]
		}
		perTable[t] = list
		tables = append(tables, t)
	}
	sort.Strings(tables)

	atoms := []atom{{cost: baseCost}} // all-seq atom
	// Cartesian product of (none + ranked list) per table, bounded.
	combos := [][]int{{}}
	for _, t := range tables {
		var next [][]int
		for _, base := range combos {
			next = append(next, base) // skip this table
			for _, r := range perTable[t] {
				combo := append(append([]int{}, base...), r.ordinal)
				next = append(next, combo)
				if len(next) >= opts.MaxAtomsPerQuery*2 {
					break
				}
			}
			if len(next) >= opts.MaxAtomsPerQuery*2 {
				break
			}
		}
		combos = next
	}
	// Price every combo in one parallel sweep, then filter in generation
	// order so the retained atom set matches the serial enumeration.
	var comboList [][]int
	for _, combo := range combos {
		if len(combo) > 0 { // the all-seq atom is already in
			comboList = append(comboList, combo)
		}
	}
	comboCosts, err := p.SweepQuery(ctx, i, comboList)
	if err != nil {
		return nil, calls, err
	}
	calls += len(comboList)
	for k, combo := range comboList {
		c := comboCosts[k]
		if c >= baseCost-1e-9 {
			continue // dominated by all-seq
		}
		atoms = append(atoms, atom{cost: c, indexes: combo})
		if len(atoms) >= opts.MaxAtomsPerQuery {
			break
		}
	}
	// Cheaper atoms first helps the solver find good incumbents early.
	sort.Slice(atoms, func(x, y int) bool { return atoms[x].cost < atoms[y].cost })
	return atoms, calls, nil
}
