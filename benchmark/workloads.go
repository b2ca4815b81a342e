package benchmark

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/designer"
)

// dataset is the generated database every workload runs on.
const dataset = "small"

// workloadDefs sizes the five workloads. The sizes were measured on the
// reference box (2 cores, go1.24) and are frozen: a run's work is fixed by
// --seconds and --scale, never by the clock. The acceptance driver's cap of
// 3420 s for 114 runs leaves about 25 s a run, set-ups and warm-up lap
// included; laps were cut to fit, answer sizes were not, and every workload
// measures at least 200 answers.
var workloadDefs = []workloadDef{
	{name: "advise_full", lapAnswers: 40, laps: 5, setup: setupAdviseFull},
	{name: "readvise_budget", lapAnswers: 77, laps: 3, setup: setupReadvise},
	{name: "whatif_edit", lapAnswers: 450, laps: 3, setup: setupWhatIf},
	{name: "online_stream", lapAnswers: 450, laps: 3, setup: setupOnline},
	{name: "serve_whatif", lapAnswers: 320, laps: 3, setup: setupServe},
}

// adviseQueries is the size of one advise question.
const adviseQueries = 48

// evalQueries is the size of the workload a what-if edit is evaluated on.
const evalQueries = 960

// script draws n statements of the uniform SDSS template mix as SQL text:
// the program only ever receives generated inputs.
func script(d *designer.Designer, seed int64, n int) ([]string, error) {
	w, err := d.GenerateWorkload(seed, n)
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i, q := range w.Queries() {
		out[i] = q.SQL()
	}
	return out, nil
}

// subSeed derives the seed of the k-th generated script from the run seed.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) + 1 }

func indexKeys(ixs []designer.Index) []string {
	keys := make([]string, len(ixs))
	for i, ix := range ixs {
		keys[i] = ix.Key()
	}
	sort.Strings(keys)
	return keys
}

func footprint(ixs []designer.Index) int64 {
	var pages int64
	for _, ix := range ixs {
		pages += ix.EstimatedPages
	}
	return pages
}

// near reports whether two costs agree to within float summation order.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)) }

// counter names shared by the workloads' counts(): cumulative, exact.
const (
	cFullOpts    = "optimizer.full_opts"
	cCostings    = "inum.costings"
	cStmts       = "sqlparse.stmts"
	cNodes       = "lp.nodes"
	cWarmStarted = "cophy.warm_started"
	cRecosted    = "engine.recosted"
	cReused      = "engine.reused"
	cWhatIfCalls = "colt.whatif_calls"
	cEpochs      = "colt.epochs"
	cAlerts      = "colt.alerts"
	cRespBytes   = "serve.response_bytes"
)

// cacheCounts reads the designer's engine counters.
func cacheCounts(d *designer.Designer) map[string]float64 {
	cs := d.CacheStats()
	return map[string]float64{cFullOpts: float64(cs.FullOptimizations), cCostings: float64(cs.CachedCostings)}
}

// facadeClient is what the workloads share by default: one client, nothing
// to do between laps, a designer.
type facadeClient struct{ d *designer.Designer }

func (f facadeClient) clients() int                           { return 1 }
func (f facadeClient) beginLap(context.Context) error         { return nil }
func (f facadeClient) endLap(context.Context) (string, error) { return "", nil }
func (f facadeClient) close()                                 {}
func (f facadeClient) designer() *designer.Designer           { return f.d }

// ---------------------------------------------------------------------------
// advise_full — Scenario 2 cold: SQL text in, full advice and DDL out.
// ---------------------------------------------------------------------------

var fullAdvice = designer.AdviceOptions{Partitions: true, Interactions: true}

type adviseFull struct {
	facadeClient
	scripts [][]string
	probe   *probeEnv // traced runs only: the staged replica's private engine

	lastW   *designer.Workload
	last    *designer.Advice
	lastDDL string
	// facade[i] is what the facade answered for script i; the staged
	// replica must reproduce it.
	facade       []adviceKey
	nodes, stmts float64
}

func setupAdviseFull(ctx context.Context, o Options, n int, probe *probeEnv) (instance, error) {
	d, err := designer.OpenSDSS(dataset, o.Seed)
	if err != nil {
		return nil, err
	}
	a := &adviseFull{facadeClient: facadeClient{d}, probe: probe, facade: make([]adviceKey, n)}
	for k := 0; k < n; k++ {
		s, err := script(d, subSeed(o.Seed, k), adviseQueries)
		if err != nil {
			return nil, err
		}
		a.scripts = append(a.scripts, s)
	}
	return a, nil
}

func (a *adviseFull) answers() int             { return len(a.scripts) }
func (a *adviseFull) probeScripts() [][]string { return a.scripts }

func (a *adviseFull) answer(ctx context.Context, _, i int, tr *tracer, root int) (float64, error) {
	if tr != nil {
		// Traced: the same question answered stage by stage through the
		// layers' public functions; it must give the facade's advice.
		got, _, err := a.probe.replica(ctx, replicaQuestion{sql: a.scripts[i], opts: fullAdvice}, nil, tr, root)
		if err != nil {
			return 0, err
		}
		if err := got.equal(a.facade[i]); err != nil {
			return 0, fmt.Errorf("staged replica of answer %d: %w", i, err)
		}
		return got.check(), nil
	}
	w, err := a.d.WorkloadFromSQL(a.scripts[i])
	if err != nil {
		return 0, err
	}
	adv, err := a.d.Advise(ctx, w, fullAdvice)
	if err != nil {
		return 0, err
	}
	a.lastW, a.last, a.lastDDL = w, adv, adv.DDL()
	a.nodes += float64(adv.Solver.Nodes)
	a.stmts += float64(len(a.scripts[i]))
	a.facade[i] = keyOf(adv)
	return a.facade[i].check(), nil
}

func canonAdvice(adv *designer.Advice) string {
	return fmt.Sprintf("%s|%.6f|%.6f", strings.Join(indexKeys(adv.Indexes), ","), adv.Solver.Objective, adv.Report.NewTotal)
}

func (a *adviseFull) canon(int) string { return canonAdvice(a.last) + "\n" + a.lastDDL }

func (a *adviseFull) verify(ctx context.Context, _ int) error {
	adv := a.last
	if !adv.Solver.Proven {
		return fmt.Errorf("advise_full: solver stopped unproven after %d nodes", adv.Solver.Nodes)
	}
	if adv.Report.NewTotal > adv.Report.BaseTotal {
		return fmt.Errorf("advise_full: advised cost %.3f above base %.3f", adv.Report.NewTotal, adv.Report.BaseTotal)
	}
	rep, err := a.d.Evaluate(ctx, a.lastW, adv.Config())
	if err != nil {
		return err
	}
	if !near(rep.NewTotal, adv.Report.NewTotal) {
		return fmt.Errorf("advise_full: cold evaluation gives %.6f, advice reported %.6f", rep.NewTotal, adv.Report.NewTotal)
	}
	return nil
}

func (a *adviseFull) counts() map[string]float64 {
	m := cacheCounts(a.d)
	m[cNodes], m[cStmts] = a.nodes, a.stmts
	return m
}

// ---------------------------------------------------------------------------
// readvise_budget — the same advisor asked again at another budget.
// ---------------------------------------------------------------------------

// budgetLadder is the share of a session's unconstrained footprint each
// successive question allows. It ends far from where it starts, so every
// lap, the first included, asks seven different questions.
var budgetLadder = []float64{0.9, 0.5, 0.75, 0.25, 0.6, 0.1, 0.4}

type readvise struct {
	facadeClient
	sessions []*designer.DesignSession
	ws       []*designer.Workload
	scripts  [][]string
	foot     []int64
	n        int

	// Traced runs: one replica state per session, primed like the session.
	probe  *probeEnv
	states []*replicaState

	last       *designer.Advice
	lastS      int
	lastBudget int64
	facade     []adviceKey

	nodes, warmStarted, recosted, reused float64
}

func setupReadvise(ctx context.Context, o Options, n int, probe *probeEnv) (instance, error) {
	d, err := designer.OpenSDSS(dataset, o.Seed)
	if err != nil {
		return nil, err
	}
	sessions := max(1, n/len(budgetLadder))
	r := &readvise{facadeClient: facadeClient{d}, probe: probe, n: sessions * len(budgetLadder)}
	r.facade = make([]adviceKey, r.n)
	for k := 0; k < sessions; k++ {
		sqls, err := script(d, subSeed(o.Seed, k), adviseQueries)
		if err != nil {
			return nil, err
		}
		// Every session names its statements apart (s3q12): the costing
		// cache is keyed by statement id, and sessions that shared ids would
		// evict each other's entries on every question.
		qs := make([]designer.Query, len(sqls))
		for i, sql := range sqls {
			if qs[i], err = d.ParseQuery(fmt.Sprintf("s%dq%d", k, i), sql); err != nil {
				return nil, err
			}
		}
		w, err := designer.NewWorkload(qs...)
		if err != nil {
			return nil, err
		}
		// Priming: the unconstrained advice fixes the ladder's footprint
		// and leaves INUM, candidates and the report state warm.
		s := d.NewDesignSession()
		adv, err := s.Advise(ctx, w, designer.AdviceOptions{})
		if err != nil {
			return nil, err
		}
		r.sessions, r.ws, r.scripts = append(r.sessions, s), append(r.ws, w), append(r.scripts, sqls)
		r.foot = append(r.foot, footprint(adv.Indexes))
		if probe != nil {
			_, st, err := probe.replica(ctx, replicaQuestion{sql: sqls, idPrefix: fmt.Sprintf("s%d", k)}, nil, nil, 0)
			if err != nil {
				return nil, err
			}
			// The traced lap follows the warm-up lap: walk the replica down
			// the ladder once, so it starts where the session will be.
			for _, rung := range budgetLadder {
				q := replicaQuestion{w: st.w, opts: designer.AdviceOptions{StorageBudgetPages: r.budget(k, rung)}}
				if _, st, err = probe.replica(ctx, q, st, nil, 0); err != nil {
					return nil, err
				}
			}
			r.states = append(r.states, st)
		}
	}
	return r, nil
}

func (r *readvise) answers() int             { return r.n }
func (r *readvise) probeScripts() [][]string { return r.scripts }

// budget is the pages a rung of the ladder allows session s.
func (r *readvise) budget(s int, rung float64) int64 {
	return max(1, int64(rung*float64(r.foot[s])))
}

func (r *readvise) answer(ctx context.Context, _, i int, tr *tracer, root int) (float64, error) {
	s := i % len(r.sessions)
	rung := budgetLadder[(i/len(r.sessions))%len(budgetLadder)]
	opts := designer.AdviceOptions{StorageBudgetPages: r.budget(s, rung)}
	if tr != nil {
		got, st, err := r.probe.replica(ctx, replicaQuestion{w: r.states[s].w, opts: opts}, r.states[s], tr, root)
		if err != nil {
			return 0, err
		}
		r.states[s] = st
		if err := got.equal(r.facade[i]); err != nil {
			return 0, fmt.Errorf("staged replica of answer %d: %w", i, err)
		}
		return got.check(), nil
	}
	adv, st, err := r.sessions[s].ReAdvise(ctx, r.ws[s], opts)
	if err != nil {
		return 0, err
	}
	r.last, r.lastS, r.lastBudget = adv, s, opts.StorageBudgetPages
	r.nodes += float64(adv.Solver.Nodes)
	if st.SolverWarmStarted {
		r.warmStarted++
	}
	r.recosted += float64(st.RecostedQueries)
	r.reused += float64(st.ReusedQueries)
	r.facade[i] = keyOf(adv)
	return r.facade[i].check(), nil
}

func (r *readvise) canon(int) string { return canonAdvice(r.last) }

func (r *readvise) verify(ctx context.Context, _ int) error {
	opts := designer.AdviceOptions{StorageBudgetPages: r.lastBudget}
	cold, err := r.d.Advise(ctx, r.ws[r.lastS], opts)
	if err != nil {
		return err
	}
	if !near(cold.Solver.Objective, r.last.Solver.Objective) {
		return fmt.Errorf("readvise_budget: cold advise objective %.6f, warm answer had %.6f", cold.Solver.Objective, r.last.Solver.Objective)
	}
	if got := footprint(r.last.Indexes); got > r.lastBudget {
		return fmt.Errorf("readvise_budget: footprint %d pages over the budget of %d", got, r.lastBudget)
	}
	return nil
}

func (r *readvise) counts() map[string]float64 {
	m := cacheCounts(r.d)
	m[cNodes], m[cWarmStarted], m[cRecosted], m[cReused] = r.nodes, r.warmStarted, r.recosted, r.reused
	return m
}

// ---------------------------------------------------------------------------
// whatif_edit — Scenario 1: edit the design by one index, ask what it costs.
// ---------------------------------------------------------------------------

// editStep is one design edit of the what-if script.
type editStep struct {
	add bool
	ix  designer.Index
}

// editChunks is how many advise-sized pieces of the evaluated workload
// contribute indexes to the edit script at scale 1.
const editChunks = 10

// editScript walks through the evaluated workload in advise-sized pieces:
// for each piece it adds each index of the piece's unconstrained advice,
// then drops each. It returns the design to its start, so every lap is the
// same lap, and it holds some 150 different edits, so that what an edit
// costs is an average over many designs, not the luck of one.
func editScript(ctx context.Context, d *designer.Designer, sqls []string, scale float64) ([]editStep, error) {
	var steps []editStep
	for _, piece := range chunk(sqls, adviseQueries, max(1, int(math.Round(editChunks*scale)))) {
		w, err := d.WorkloadFromSQL(piece)
		if err != nil {
			return nil, err
		}
		adv, err := d.Advise(ctx, w, designer.AdviceOptions{})
		if err != nil {
			return nil, err
		}
		for _, ix := range adv.Indexes {
			steps = append(steps, editStep{add: true, ix: ix})
		}
		for _, ix := range adv.Indexes {
			steps = append(steps, editStep{ix: ix})
		}
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("every unconstrained advice is empty: nothing to edit")
	}
	return steps, nil
}

// wholeRounds rounds n to a whole number of passes through the steps.
func wholeRounds(n, steps int) int { return max(1, (n+steps/2)/steps) * steps }

type whatIf struct {
	facadeClient
	sqls  []string
	w     *designer.Workload
	sess  *designer.DesignSession
	steps []editStep
	n     int
	last  *designer.Report

	recosted, reused float64
}

func setupWhatIf(ctx context.Context, o Options, n int, _ *probeEnv) (instance, error) {
	d, err := designer.OpenSDSS(dataset, o.Seed)
	if err != nil {
		return nil, err
	}
	x := &whatIf{facadeClient: facadeClient{d}}
	if x.sqls, err = script(d, subSeed(o.Seed, 0), evalQueries); err != nil {
		return nil, err
	}
	if x.w, err = d.WorkloadFromSQL(x.sqls); err != nil {
		return nil, err
	}
	if x.steps, err = editScript(ctx, d, x.sqls, o.Scale); err != nil {
		return nil, err
	}
	x.n = wholeRounds(n, len(x.steps))
	x.sess = d.NewDesignSession()
	if _, err := x.sess.Evaluate(ctx, x.w); err != nil {
		return nil, err
	}
	return x, nil
}

func (x *whatIf) answers() int             { return x.n }
func (x *whatIf) probeScripts() [][]string { return chunk(x.sqls, adviseQueries, 4) }

func (x *whatIf) answer(ctx context.Context, _, i int, tr *tracer, root int) (float64, error) {
	st := x.steps[i%len(x.steps)]
	id := tr.begin(root, tr.answerOf(root), "designer.edit")
	if st.add {
		if _, err := x.sess.AddIndex(st.ix.Table, st.ix.Columns...); err != nil {
			return 0, err
		}
	} else if !x.sess.DropIndex(st.ix.Key()) {
		return 0, fmt.Errorf("whatif_edit: index %s is not in the design", st.ix.Key())
	}
	tr.end(id)
	id = tr.begin(root, tr.answerOf(root), "designer.evaluate")
	rep, err := x.sess.Evaluate(ctx, x.w)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	x.last = rep
	rc, ru := x.sess.LastEvaluateDelta()
	x.recosted += float64(rc)
	x.reused += float64(ru)
	return rep.NewTotal, nil
}

func canonReport(rep *designer.Report) string {
	return fmt.Sprintf("%.6f|%.6f|%d", rep.BaseTotal, rep.NewTotal, len(rep.Queries))
}

func (x *whatIf) canon(int) string { return canonReport(x.last) }

// sameReport checks a report against a fresh session holding the same
// design: the delta-costed answer must be the cold answer.
func sameReport(ctx context.Context, d *designer.Designer, w *designer.Workload, design []designer.Index, base, total float64) error {
	fresh := d.NewDesignSession()
	for _, ix := range design {
		if !ix.Hypothetical {
			continue
		}
		if _, err := fresh.AddIndex(ix.Table, ix.Columns...); err != nil {
			return err
		}
	}
	rep, err := fresh.Evaluate(ctx, w)
	if err != nil {
		return err
	}
	if !near(rep.NewTotal, total) || !near(rep.BaseTotal, base) {
		return fmt.Errorf("fresh session gives %.6f → %.6f, the answer was %.6f → %.6f", rep.BaseTotal, rep.NewTotal, base, total)
	}
	return nil
}

func (x *whatIf) verify(ctx context.Context, _ int) error {
	if err := sameReport(ctx, x.d, x.w, x.sess.Config().Indexes(), x.last.BaseTotal, x.last.NewTotal); err != nil {
		return fmt.Errorf("whatif_edit: %w", err)
	}
	return nil
}

func (x *whatIf) counts() map[string]float64 {
	m := cacheCounts(x.d)
	m[cRecosted], m[cReused] = x.recosted, x.reused
	return m
}

// chunk cuts the first k pieces of size n off xs.
func chunk(xs []string, n, k int) [][]string {
	var out [][]string
	for i := 0; i+n <= len(xs) && len(out) < k; i += n {
		out = append(out, xs[i:i+n])
	}
	return out
}

// ---------------------------------------------------------------------------
// online_stream — Scenario 3: the tuner watches a drifting stream.
// ---------------------------------------------------------------------------

// streamBatch is the number of statements one answer parses and observes.
const streamBatch = 100

type online struct {
	facadeClient
	ids, sqls []string
	tuner     *designer.Tuner
	lastCost  float64

	stmts, whatIfCalls, epochs, alerts float64
}

func setupOnline(ctx context.Context, o Options, n int, _ *probeEnv) (instance, error) {
	d, err := designer.OpenSDSS(dataset, o.Seed)
	if err != nil {
		return nil, err
	}
	// Three phases of distinct statements: every observed statement is new
	// to the cache, which is the point — this is INUM's write path.
	perPhase := (n*streamBatch + 2) / 3
	qs, err := d.DriftStream(subSeed(o.Seed, 0), perPhase)
	if err != nil {
		return nil, err
	}
	x := &online{facadeClient: facadeClient{d}}
	for _, q := range qs {
		x.ids, x.sqls = append(x.ids, q.ID()), append(x.sqls, q.SQL())
	}
	return x, nil
}

func (x *online) answers() int { return len(x.sqls) / streamBatch }
func (x *online) probeScripts() [][]string {
	// One script per drift phase, so the probes see the whole template mix.
	third := len(x.sqls) / 3
	var out [][]string
	for p := 0; p < 3; p++ {
		out = append(out, x.sqls[p*third:p*third+min(adviseQueries, third)])
	}
	return out
}

func (x *online) beginLap(context.Context) error {
	x.tuner = x.d.NewOnlineTuner(designer.DefaultTunerOptions())
	return nil
}

func (x *online) answer(ctx context.Context, _, i int, tr *tracer, root int) (float64, error) {
	lo := i * streamBatch
	id := tr.begin(root, tr.answerOf(root), "designer.parse")
	batch := make([]designer.Query, 0, streamBatch)
	for j := lo; j < lo+streamBatch; j++ {
		q, err := x.d.ParseQuery(x.ids[j], x.sqls[j])
		if err != nil {
			return 0, err
		}
		batch = append(batch, q)
	}
	tr.end(id)
	id = tr.begin(root, tr.answerOf(root), "tuner.observe")
	cost, err := x.tuner.ObserveAll(ctx, batch)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	x.lastCost = cost
	x.stmts += streamBatch
	return cost, nil
}

func (x *online) canon(int) string { return fmt.Sprintf("%.6f", x.lastCost) }

// verify has nothing per answer: the tuner's decisions are checked per lap
// (endLap's state must repeat).
func (x *online) verify(context.Context, int) error { return nil }

func (x *online) endLap(context.Context) (string, error) {
	reports := x.tuner.Reports()
	for _, r := range reports {
		x.whatIfCalls += float64(r.WhatIfCalls)
	}
	x.epochs += float64(len(reports))
	alerts := len(x.tuner.Alerts())
	x.alerts += float64(alerts)
	state := fmt.Sprintf("alerts=%d indexes=%s", alerts, strings.Join(indexKeys(x.tuner.Current()), ","))
	x.tuner.Close()
	return state, nil
}

func (x *online) counts() map[string]float64 {
	m := cacheCounts(x.d)
	m[cStmts], m[cWhatIfCalls], m[cEpochs], m[cAlerts] = x.stmts, x.whatIfCalls, x.epochs, x.alerts
	return m
}
