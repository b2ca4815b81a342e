package cophy

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/lp"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// solveUnreduced is the row writer the presolve replaced, kept as the
// reference it is checked against: it answers one question from a priced
// program by writing the BIP's rows — a y for every candidate, budget, pins,
// each query's linking rows and assignment — applying the warm start and
// running the branch-and-bound.
func (a *Advisor) solveUnreduced(ctx context.Context, prog *program, opts Options, res *Result) (*Result, error) {
	for i, q := range prog.queries {
		res.BaselineCost += prog.baseline(i) * q.Weight
	}

	// Variable layout: y_0..y_{C-1}, then one x per atom.
	C := len(a.candidates)
	numX := len(prog.cost)
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
	pinned := make([]bool, C)
	if keys := keySet(opts.PinnedKeys); len(keys) > 0 {
		matched := 0
		for j, ix := range a.candidates {
			if keys[ix.Key()] {
				pinned[j] = true
				p.AddConstraint(map[int]float64{j: 1}, lp.EQ, 1)
				matched++
			}
		}
		if matched < len(keys) {
			return nil, fmt.Errorf("cophy: %d pinned keys do not match any candidate", len(keys)-matched)
		}
	}
	for i, q := range prog.queries {
		// Assignment: exactly one atom.
		lo, hi := prog.atoms(i)
		assign := make(map[int]float64, hi-lo)
		for at := lo; at < hi; at++ {
			xv := C + at
			assign[xv] = 1
			p.Objective[xv] = prog.cost[at] * q.Weight
			// Linking constraints.
			for _, j := range prog.uses(at) {
				p.AddConstraint(map[int]float64{xv: 1, int(j): -1}, lp.LE, 0)
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
		warmX = make([]float64, C+numX)
		for j := range pinned {
			if pinned[j] {
				warmX[j] = 1
			}
		}
		for i := range prog.queries {
			lo, hi := prog.atoms(i)
			for at := lo; at < hi; at++ { // atoms are sorted cheapest-first
				if !supported(prog.uses(at), inBasis) {
					continue
				}
				warmX[C+at] = 1
				for _, j := range prog.uses(at) {
					warmX[j] = 1
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
		// empty design plus the pins is always feasible (the root
		// relaxation fits the pins in the budget), so fall back to it —
		// the anytime behaviour a time-boxed advisor must have (E10). A y
		// carries no cost: every query keeps its all-sequential atom and
		// the objective is the baseline.
		res.Objective = res.BaselineCost
		res.Bound = sol.Bound
		res.Proven = false
		res.Nodes = sol.Nodes
		for i, q := range prog.queries {
			res.PerQuery = append(res.PerQuery, QueryPlan{QueryID: q.ID, Cost: prog.baseline(i)})
		}
		res.Indexes = a.chosen(pinned)
		return res, nil
	default:
		return nil, fmt.Errorf("cophy: solver returned %v", sol.Status)
	}

	// Extract the per-query plans, then the configuration: the indexes the
	// chosen plans use, plus the pinned candidates. A y_j has objective 0,
	// so under a budget the solver may leave one at 1 that no chosen plan
	// uses; advising it would fill budget for nothing.
	used := slices.Clone(pinned)
	for i, q := range prog.queries {
		lo, hi := prog.atoms(i)
		for at := lo; at < hi; at++ {
			if sol.X[C+at] > 0.5 {
				qp := QueryPlan{QueryID: q.ID, Cost: prog.cost[at]}
				for _, j := range prog.uses(at) {
					used[j] = true
					qp.Indexes = append(qp.Indexes, a.candidates[j])
				}
				res.PerQuery = append(res.PerQuery, qp)
				break
			}
		}
	}
	res.Indexes = a.chosen(used)
	return res, nil
}

// presolveInstance is a priced program and the advisor over its candidates,
// with the unconstrained answer that scales its budgets.
type presolveInstance struct {
	name     string
	adv      *Advisor
	prog     *program
	free     int64    // pages of the unconstrained answer
	freeKeys []string // its index keys
}

// newPresolveInstance prices the program of nQueries generated statements
// (workload seed wSeed) on a store of the given size and seed, over the
// generated candidates — maxPerTable a table and maxCands in all, 0 for the
// generator's default and for all — under the atom caps of opts.
func newPresolveInstance(t *testing.T, size string, seed, wSeed int64, nQueries, maxPerTable, maxCands int, opts Options) *presolveInstance {
	t.Helper()
	sz, err := workload.SizeByName(size)
	if err != nil {
		t.Fatal(err)
	}
	store, err := workload.Generate(sz, seed)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewWorkload(store.Schema, wSeed, nQueries)
	if err != nil {
		t.Fatal(err)
	}
	v := engine.New(store.Schema, store.Stats, nil).Pin()
	copts := whatif.DefaultCandidateOptions()
	if maxPerTable > 0 {
		copts.MaxPerTable = maxPerTable
	}
	cands := v.Session().GenerateCandidates(w, copts)
	if maxCands > 0 && len(cands) > maxCands {
		cands = cands[:maxCands]
	}
	adv := New(nil, cands)
	res, err := adv.AdviseView(context.Background(), v, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	in := &presolveInstance{
		name: fmt.Sprintf("%s seed %d, %d queries, %d candidates", size, seed, nQueries, len(cands)),
		adv:  adv, prog: adv.last.Load(),
	}
	for _, ix := range res.Indexes {
		in.free += ix.EstimatedPages
		in.freeKeys = append(in.freeKeys, ix.Key())
	}
	return in
}

// questions are the questions TestPresolveMatchesUnreduced asks of an
// instance: budgets from 0.05 to 1 times the unconstrained footprint (and
// unlimited), each plain, warm-started from the unconstrained answer, with a
// pin on a used and on an unused candidate, and under node budgets of 1 to
// 3, alone and beside a pin.
func (in *presolveInstance) questions() []Options {
	usedPin, unusedPin := "", ""
	for j, ix := range in.adv.candidates {
		switch {
		case !slices.Contains(in.prog.ords, int32(j)) && unusedPin == "":
			unusedPin = ix.Key()
		case slices.Contains(in.prog.ords, int32(j)) && !slices.Contains(in.freeKeys, ix.Key()) && usedPin == "":
			usedPin = ix.Key()
		}
	}
	var qs []Options
	for _, frac := range []float64{0, 0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1} {
		base := in.prog.options()
		if frac > 0 {
			base.StorageBudgetPages = max(1, int64(frac*float64(in.free)))
		}
		qs = append(qs, base)
		warm := base
		warm.WarmStartKeys = in.freeKeys
		qs = append(qs, warm)
		for _, pin := range []string{usedPin, unusedPin} {
			if pin != "" {
				pinned := base
				pinned.PinnedKeys = []string{pin}
				qs = append(qs, pinned)
			}
		}
		for nodes := 1; nodes <= 3; nodes++ {
			limited := base
			limited.NodeBudget = nodes
			qs = append(qs, limited)
			if unusedPin != "" {
				limited.PinnedKeys = []string{unusedPin}
				limited.WarmStartKeys = in.freeKeys
				qs = append(qs, limited)
			}
		}
	}
	return qs
}

// options returns the default options under the program's atom caps.
func (p *program) options() Options {
	o := DefaultOptions()
	o.MaxIndexesPerQueryTable, o.MaxAtomsPerQuery = p.maxIndexes, p.maxAtoms
	return o
}

// price is the program's objective of a design: each query on its cheapest
// atom the design supports, summed in query order.
func price(a *Advisor, prog *program, design []*catalog.Index) float64 {
	open := make([]bool, len(a.candidates))
	for j, ix := range a.candidates {
		open[j] = slices.ContainsFunc(design, func(d *catalog.Index) bool { return d.Key() == ix.Key() })
	}
	total := 0.0
	for i, q := range prog.queries {
		lo, hi := prog.atoms(i)
		for at := lo; at < hi; at++ {
			if supported(prog.uses(at), open) {
				total += prog.cost[at] * q.Weight
				break
			}
		}
	}
	return total
}

func designKeys(r *Result) string {
	keys := make([]string, len(r.Indexes))
	for i, ix := range r.Indexes {
		keys[i] = ix.Key()
	}
	return strings.Join(keys, ",")
}

// comparison is one question answered by the presolved program (got) and
// by the unreduced one (want); both are nil when both refused it.
type comparison struct {
	got, want *Result
	twin      bool // the two name different designs
}

// compare asks the presolved and the unreduced program one question and
// says how the answers disagree ("" when they do not). Both refuse the same
// questions. Every presolved answer's objective is the sum of its plans,
// each served by its design, and its bound lies between the unreduced root
// relaxation's and its objective. Without a node budget, or when both
// searches closed within it, the answers agree on the objective by
// Float64bits, on Proven and on the warm start, and two different designs
// (exact twins) price alike. A node budget that stops either search early
// stops two different trees — the presolved tableau has other columns — so
// there an answer is held to the unreduced optimum instead: an objective no
// better than it, a bound no worse, and, if proven, the optimum itself.
func compare(ctx context.Context, a *Advisor, prog *program, o Options) (comparison, string) {
	got, err := a.solve(ctx, prog, o, &Result{})
	want, werr := a.solveUnreduced(ctx, prog, o, &Result{})
	switch {
	case (err == nil) != (werr == nil):
		return comparison{}, fmt.Sprintf("presolved error %v, unreduced %v", err, werr)
	case err != nil:
		return comparison{}, ""
	}
	c := comparison{got: got, want: want, twin: designKeys(got) != designKeys(want)}
	bits := math.Float64bits
	if got.WarmStarted != want.WarmStarted || bits(got.BaselineCost) != bits(want.BaselineCost) {
		return c, fmt.Sprintf("presolved warm start %v, baseline %v; unreduced %v, %v",
			got.WarmStarted, got.BaselineCost, want.WarmStarted, want.BaselineCost)
	}
	sum := 0.0
	for i, qp := range got.PerQuery {
		sum += qp.Cost * prog.queries[i].Weight
		for _, ix := range qp.Indexes {
			if !slices.Contains(got.Indexes, ix) {
				return c, fmt.Sprintf("plan %s uses %s outside the design [%s]", qp.QueryID, ix.Key(), designKeys(got))
			}
		}
	}
	if len(got.PerQuery) != len(prog.queries) || bits(sum) != bits(got.Objective) {
		return c, fmt.Sprintf("%d plans summing to %v, objective %v", len(got.PerQuery), sum, got.Objective)
	}
	unreduced := func(nodes int) *Result {
		q := o
		q.NodeBudget, q.WarmStartKeys = nodes, nil
		res, err := a.solveUnreduced(ctx, prog, q, &Result{})
		if err != nil {
			panic(err) // the question was answered with a warm start and a node budget
		}
		return res
	}
	root := unreduced(1).Bound
	if got.Bound > got.Objective || got.Bound < root-1e-9*math.Abs(root) {
		return c, fmt.Sprintf("bound %v outside [root relaxation %v, objective %v]", got.Bound, root, got.Objective)
	}
	if o.NodeBudget == 0 || got.Proven && want.Proven {
		switch {
		case bits(got.Objective) != bits(want.Objective) || got.Proven != want.Proven:
			return c, fmt.Sprintf("presolved objective %v (proven %v, [%s]), unreduced %v (proven %v, [%s])",
				got.Objective, got.Proven, designKeys(got), want.Objective, want.Proven, designKeys(want))
		case c.twin && bits(price(a, prog, got.Indexes)) != bits(price(a, prog, want.Indexes)):
			return c, fmt.Sprintf("presolved design [%s] prices %v, unreduced [%s] %v",
				designKeys(got), price(a, prog, got.Indexes), designKeys(want), price(a, prog, want.Indexes))
		}
		return c, ""
	}
	opt := unreduced(0).Objective
	tol := 1e-9 * math.Abs(opt)
	if got.Objective < opt-tol || got.Bound > opt+tol || got.Proven && bits(got.Objective) != bits(opt) {
		return c, fmt.Sprintf("stopped early: objective %v, bound %v, proven %v; the optimum is %v",
			got.Objective, got.Bound, got.Proven, opt)
	}
	return c, ""
}

// TestPresolveMatchesUnreduced holds the presolved program to the unreduced
// one it replaced (solveUnreduced), question by question, on the package's
// fixtures and on generated tiny and small workloads of 48 statements over
// every generated candidate (compare says what must agree).
func TestPresolveMatchesUnreduced(t *testing.T) {
	ctx := context.Background()
	wide := DefaultOptions()
	wide.MaxIndexesPerQueryTable, wide.MaxAtomsPerQuery = 8, 256
	instances := []*presolveInstance{
		newPresolveInstance(t, "tiny", 51, 52, 12, 4, 24, DefaultOptions()),
		newPresolveInstance(t, "tiny", 51, 52, 10, 4, 12, DefaultOptions()),
		newPresolveInstance(t, "tiny", 51, 52, 6, 4, 8, wide),
		newPresolveInstance(t, "tiny", 1, 1_000_004, 48, 0, 0, DefaultOptions()),
	}
	if !testing.Short() {
		instances = append(instances,
			newPresolveInstance(t, "small", 1, 1_000_004, 48, 0, 0, DefaultOptions()),
			newPresolveInstance(t, "small", 5, 5_000_016, 48, 0, 0, DefaultOptions()))
	}
	early := 0
	for _, in := range instances {
		var asked, stopped, better, worse, twins, nodes, refNodes int
		for k, o := range in.questions() {
			c, why := compare(ctx, in.adv, in.prog, o)
			if why != "" {
				t.Errorf("%s, question %d (budget %d, nodes %d, pins %v, warm %d keys): %s",
					in.name, k, o.StorageBudgetPages, o.NodeBudget, o.PinnedKeys, len(o.WarmStartKeys), why)
			}
			if c.got == nil {
				continue
			}
			asked++
			nodes += c.got.Nodes
			refNodes += c.want.Nodes
			switch {
			case c.got.Proven && c.want.Proven:
				if c.twin {
					twins++
				}
			case c.got.Objective < c.want.Objective:
				stopped, better = stopped+1, better+1
			case c.got.Objective > c.want.Objective:
				stopped, worse = stopped+1, worse+1
			default:
				stopped++
			}
		}
		early += stopped
		t.Logf("%s: %d answers, %d name another twin; %d stopped early, the presolved one better in %d, worse in %d; %d nodes, unreduced %d",
			in.name, asked, twins, stopped, better, worse, nodes, refNodes)
	}
	if early == 0 {
		t.Error("no node budget stopped a search early")
	}
}

// FuzzPresolveMatchesUnreduced turns bytes into a small priced program and
// a question (decodeInstance) and requires the presolved and the unreduced
// solve to agree as compare says: on the objective, by Float64bits, and on
// Proven wherever no node budget stopped a search early. Corpus
// (testdata/fuzz/FuzzPresolveMatchesUnreduced): every query folds; no query
// can use an index (a program with no variables); a pin on a candidate no
// atom uses, under a budget; two-structure atoms under a tight budget and a
// node budget of one; and zero-weight queries, which do not fold.
func FuzzPresolveMatchesUnreduced(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		adv, prog, opts := decodeInstance(data)
		if _, why := compare(context.Background(), adv, prog, opts); why != "" {
			t.Fatalf("%s\nquestion %+v", why, opts)
		}
	})
}

// decodeInstance reads an advisor and a priced program from fuzz bytes,
// one byte a number, missing bytes read as zero: the candidates (1 + b%6),
// each one's pages (1 + b%16); the queries (1 + b%5), each with its weight
// (1, 2.5, 0.5 or 0 by b%4), its all-sequential cost (8 + b%120) and up to
// three index atoms (b%4), each on one structure (b%C) or, when its second
// byte is 2 mod 3, on a second one as well, at a share (1 + b%63)/64 of
// the sequential cost. Then the question: a budget (none when b%4 = 0,
// otherwise 1 + (b/4) mod the total pages), pins (bits 2–7 of a byte whose
// low bits are 3), a warm-start basis (one bit a candidate) and a node
// budget (b%4).
func decodeInstance(data []byte) (*Advisor, *program, Options) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	a := &Advisor{}
	var total int64
	for j, n := 0, 1+next()%6; j < n; j++ {
		ix := &catalog.Index{Table: "t", Columns: []string{fmt.Sprintf("c%d", j)}, EstimatedPages: int64(1 + next()%16)}
		a.candidates = append(a.candidates, ix)
		total += ix.EstimatedPages
	}
	C := len(a.candidates)
	type atom struct {
		cost float64
		uses []int32
	}
	prog := &program{}
	for i, n := 0, 1+next()%5; i < n; i++ {
		weight := []float64{1, 2.5, 0.5, 0}[next()%4]
		prog.queries = append(prog.queries, workload.Query{ID: fmt.Sprintf("q%d", i), Weight: weight})
		seq := float64(8 + next()%120)
		var atoms []atom
		for k := next() % 4; k > 0; k-- {
			uses := []int32{int32(next() % C)}
			if b := next(); b%3 == 2 && int32(b/3%C) != uses[0] {
				uses = append(uses, int32(b/3%C))
			}
			atoms = append(atoms, atom{cost: seq * float64(1+next()%63) / 64, uses: uses})
		}
		slices.SortStableFunc(atoms, func(x, y atom) int { return cmp.Compare(x.cost, y.cost) })
		for _, at := range append(atoms, atom{cost: seq}) {
			prog.cost = append(prog.cost, at.cost)
			prog.ords = append(prog.ords, at.uses...)
			prog.ordEnd = append(prog.ordEnd, int32(len(prog.ords)))
		}
		prog.atomEnd = append(prog.atomEnd, int32(len(prog.cost)))
	}
	opts := DefaultOptions()
	if b := next(); b%4 != 0 {
		opts.StorageBudgetPages = 1 + int64(b/4)%total
	}
	pins, warm := next(), next()
	for j, ix := range a.candidates {
		if pins&3 == 3 && pins>>(2+j)&1 == 1 {
			opts.PinnedKeys = append(opts.PinnedKeys, ix.Key())
		}
		if warm>>j&1 == 1 {
			opts.WarmStartKeys = append(opts.WarmStartKeys, ix.Key())
		}
	}
	opts.NodeBudget = next() % 4
	return a, prog, opts
}
