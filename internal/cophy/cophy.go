// Package cophy implements the CoPhy index advisor (§3.2.1): index
// selection cast as a binary linear program. For every workload query it
// enumerates a bounded set of plan atoms (per-table index assignments),
// prices each atom with the INUM cache, and builds the BIP
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
package cophy

import (
	"context"
	"fmt"
	"sort"
	"strings"
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
	// PricingCalls counts INUM costings spent building the BIP.
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

// Advisor runs CoPhy over a fixed workload and candidate set.
type Advisor struct {
	candidates []*catalog.Index
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
// by handing each the same view. The context is honored through every
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

	// Pre-warm the INUM entries on the engine's sweep pool — template
	// building is one full optimization per seed configuration and query,
	// which the loop below would otherwise pay query by query — then
	// enumerate per-query atoms.
	if err := v.Prepare(ctx, w, nil); err != nil {
		return nil, err
	}
	type queryAtoms struct {
		q     workload.Query
		atoms []atom
	}
	emptyCfg := catalog.NewConfiguration()
	var all []queryAtoms
	for _, q := range w.Queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		baseCost, err := v.QueryCost(q, emptyCfg)
		if err != nil {
			return nil, err
		}
		res.PricingCalls++
		res.BaselineCost += baseCost * q.Weight

		atoms, calls, err := a.enumerateAtoms(ctx, v, q.Stmt.Analysis().Tables, q, baseCost, opts)
		if err != nil {
			return nil, err
		}
		res.PricingCalls += calls
		all = append(all, queryAtoms{q: q, atoms: atoms})
	}

	// Build the BIP. Variable layout: y_0..y_{C-1}, then x atoms.
	C := len(a.candidates)
	numX := 0
	for _, qa := range all {
		numX += len(qa.atoms)
	}
	p := lp.NewProblem(C + numX)
	for j := 0; j < C+numX; j++ {
		p.Binary[j] = true
	}
	// Storage budget over y.
	if opts.StorageBudgetPages > 0 {
		coefs := map[int]float64{}
		for j, ix := range a.candidates {
			coefs[j] = float64(ix.EstimatedPages)
		}
		p.AddConstraint(coefs, lp.LE, float64(opts.StorageBudgetPages))
	}
	// Pinned candidates: y_j = 1.
	pinned := make(map[string]bool, len(opts.PinnedKeys))
	for _, k := range opts.PinnedKeys {
		pinned[strings.ToLower(k)] = true
	}
	if len(pinned) > 0 {
		matched := 0
		for j, ix := range a.candidates {
			if pinned[ix.Key()] {
				p.AddConstraint(map[int]float64{j: 1}, lp.EQ, 1)
				matched++
			}
		}
		if matched < len(pinned) {
			return nil, fmt.Errorf("cophy: %d pinned keys do not match any candidate", len(pinned)-matched)
		}
	}
	xBase := C
	for _, qa := range all {
		// Assignment: exactly one atom.
		assign := map[int]float64{}
		for k, at := range qa.atoms {
			xv := xBase + k
			assign[xv] = 1
			p.Objective[xv] = at.cost * qa.q.Weight
			// Linking constraints.
			for _, j := range at.indexes {
				p.AddConstraint(map[int]float64{xv: 1, j: -1}, lp.LE, 0)
			}
		}
		p.AddConstraint(assign, lp.EQ, 1)
		xBase += len(qa.atoms)
	}

	// Warm start: assemble a feasible incumbent from the previous advice's
	// basis. For each query pick its cheapest atom fully supported by the
	// basis (the all-sequential atom always qualifies), then open exactly
	// the y variables those atoms use plus any pinned candidates. The seed
	// is vetted by the solver (budget, pins) and ignored if stale.
	var warmX []float64
	if len(opts.WarmStartKeys) > 0 {
		basis := make(map[string]bool, len(opts.WarmStartKeys))
		for _, k := range opts.WarmStartKeys {
			basis[strings.ToLower(k)] = true
		}
		warmX = make([]float64, C+numX)
		for j, ix := range a.candidates {
			if pinned[ix.Key()] {
				warmX[j] = 1
			}
		}
		xb := C
		for _, qa := range all {
			pick := -1
			for k, at := range qa.atoms { // atoms are sorted cheapest-first
				supported := true
				for _, j := range at.indexes {
					if !basis[a.candidates[j].Key()] {
						supported = false
						break
					}
				}
				if supported {
					pick = k
					break
				}
			}
			warmX[xb+pick] = 1
			for _, j := range qa.atoms[pick].indexes {
				warmX[j] = 1
			}
			xb += len(qa.atoms)
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
	if sol.Status == lp.StatusCancelled {
		return nil, ctx.Err()
	}
	switch sol.Status {
	case lp.StatusOptimal, lp.StatusNodeLimit:
		res.Objective = sol.Objective
		res.Bound = sol.Bound
		res.Proven = sol.Proven
		res.Nodes = sol.Nodes
	case lp.StatusNoSolution:
		// The node budget expired before any incumbent was found. The
		// empty design is always feasible, so fall back to it — the
		// anytime behaviour a time-boxed advisor must have (E10).
		res.Objective = res.BaselineCost
		res.Bound = sol.Bound
		res.Proven = false
		res.Nodes = sol.Nodes
		for _, qa := range all {
			res.PerQuery = append(res.PerQuery, QueryPlan{QueryID: qa.q.ID, Cost: qa.atoms[len(qa.atoms)-1].cost})
		}
		return res, nil
	default:
		return nil, fmt.Errorf("cophy: solver returned %v", sol.Status)
	}

	// Extract the per-query plans, then the configuration: the indexes the
	// chosen plans use, plus the pinned candidates. A y_j has objective 0,
	// so under a budget the solver may leave one at 1 that no chosen plan
	// uses; advising it would fill budget for nothing.
	used := make([]bool, C)
	xBase = C
	for _, qa := range all {
		for k, at := range qa.atoms {
			if sol.X[xBase+k] > 0.5 {
				qp := QueryPlan{QueryID: qa.q.ID, Cost: at.cost}
				for _, j := range at.indexes {
					used[j] = true
					qp.Indexes = append(qp.Indexes, a.candidates[j])
				}
				res.PerQuery = append(res.PerQuery, qp)
				break
			}
		}
		xBase += len(qa.atoms)
	}
	for j, ix := range a.candidates {
		if used[j] || pinned[ix.Key()] {
			res.Indexes = append(res.Indexes, ix)
		}
	}
	sort.Slice(res.Indexes, func(i, j int) bool { return res.Indexes[i].Key() < res.Indexes[j].Key() })
	return res, nil
}

// enumerateAtoms prices the plan atoms of one query: the all-sequential
// atom plus cartesian combinations of the top candidate indexes per table.
// Both pricing phases — singleton ranking and combo evaluation — run as
// parallel engine sweeps; the resulting atom set is identical to the serial
// enumeration because candidates are ranked and filtered in ordinal order.
func (a *Advisor) enumerateAtoms(ctx context.Context, v *engine.View, qTables []string, q workload.Query, baseCost float64, opts Options) ([]atom, int, error) {
	calls := 0
	// Rank candidates per referenced table by single-index benefit, priced
	// in one parallel sweep over the singleton configurations.
	type ranked struct {
		ordinal int
		benefit float64
	}
	var refOrdinals []int
	var singletons []*catalog.Configuration
	for j, ix := range a.candidates {
		lt := strings.ToLower(ix.Table)
		for _, t := range qTables {
			if t == lt {
				refOrdinals = append(refOrdinals, j)
				singletons = append(singletons, catalog.NewConfiguration().WithIndex(ix))
				break
			}
		}
	}
	singleCosts, err := v.SweepQueryConfigs(ctx, q, singletons)
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
	var comboCfgs []*catalog.Configuration
	for _, combo := range combos {
		if len(combo) == 0 {
			continue // the all-seq atom is already in
		}
		cfg := catalog.NewConfiguration()
		for _, j := range combo {
			cfg = cfg.WithIndex(a.candidates[j])
		}
		comboList = append(comboList, combo)
		comboCfgs = append(comboCfgs, cfg)
	}
	comboCosts, err := v.SweepQueryConfigs(ctx, q, comboCfgs)
	if err != nil {
		return nil, calls, err
	}
	calls += len(comboCfgs)
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
