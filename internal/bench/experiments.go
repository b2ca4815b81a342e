package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/designer"
	"repro/internal/autopart"
	"repro/internal/autopilot"
	"repro/internal/catalog"
	"repro/internal/colt"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/greedy"
	"repro/internal/interaction"
	"repro/internal/lp"
	"repro/internal/optimizer"
	"repro/internal/schedule"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Every experiment is one runner: build what the cell needs, ask the
// question on one pinned view (the Env's, or the one pin of a fresh engine
// when the experiment must start cold), write the cells.

// CoPhy runs the CoPhy advisor over the Env's workload and candidates with
// the given storage budget (0 = unlimited) and node budget (0 = prove
// optimality).
func (e *Env) CoPhy(budgetPages int64, nodeBudget int) (*cophy.Result, error) {
	opts := cophy.DefaultOptions()
	opts.StorageBudgetPages = budgetPages
	opts.NodeBudget = nodeBudget
	return cophy.New(e.Eng, e.Cands).AdviseView(context.Background(), e.View, e.W, opts)
}

// bool01 renders a deterministic boolean as a count cell.
func bool01(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// runINUMVsOptimizer records the latency-independent form of the E8
// speedup — the paper's "orders of magnitude" claim: a full designer
// pipeline (CoPhy + interaction analysis + scheduling) runs on a cold engine
// and the cell is how many cached costings were served per full optimizer
// invocation. The wall-clock form is benchmark/'s inum.speedup_x.
func runINUMVsOptimizer(e *Env, spec Spec, x *Experiment) error {
	ctx := context.Background()
	eng := e.FreshEngine()
	v := eng.Pin()
	res, err := cophy.New(eng, e.Cands).AdviseView(ctx, v, e.W, cophy.DefaultOptions())
	if err != nil {
		return err
	}
	if len(res.Indexes) >= 2 {
		if _, err := interaction.AnalyzeView(ctx, v, e.W, res.Indexes, interaction.DefaultOptions()); err != nil {
			return err
		}
		if _, err := schedule.New(eng).GreedyView(ctx, v, e.W, res.Indexes); err != nil {
			return err
		}
	}
	ratio := 0.0
	if full, cached := eng.CacheStats(); full > 0 {
		ratio = float64(cached) / float64(full)
	}
	x.Quality["costings_per_optimizer_call"] = ratio
	x.Counts["queries"] = int64(len(e.W.Queries))
	x.Counts["candidates"] = int64(len(e.Cands))
	return nil
}

// runBackendPortability measures the paper's portability claim in
// executable form: the same greedy selection run under the native and
// calibrated backends should choose (nearly) the same design even though
// the two models disagree on absolute costs.
func runBackendPortability(e *Env, spec Spec, x *Experiment) error {
	ctx := context.Background()
	// Every selection below runs at an unlimited budget (0): each backend
	// keeps every index it finds beneficial. The claim under test is that
	// both economies recognize the same beneficial structures — tight
	// budgets instead test knapsack tie-breaking, where a 3.6x
	// random-page-cost swing legitimately ranks marginal indexes
	// differently.
	//
	// pinFresh builds an unshared, cold-cache engine over the Env's dataset
	// on the given backend and pins its one generation.
	pinFresh := func(backend engine.BackendSpec) (*engine.View, error) {
		eng, err := engine.NewWithBackend(e.Store.Schema, e.Store.Stats, nil, backend)
		if err != nil {
			return nil, err
		}
		return eng.Pin(), nil
	}

	// Native selection.
	native, err := pinFresh(engine.BackendSpec{})
	if err != nil {
		return err
	}
	nres, err := greedy.Advise(ctx, native, e.Cands, e.W, 0)
	if err != nil {
		return err
	}

	// Calibrated selection: same candidates, same workload, different cost
	// economy.
	calib, err := pinFresh(engine.BackendSpec{Calibration: engine.DefaultCalibration()})
	if err != nil {
		return err
	}
	cres, err := greedy.Advise(ctx, calib, e.Cands, e.W, 0)
	if err != nil {
		return err
	}

	// Functional agreement: price each backend's chosen design under the
	// OTHER backend and compare with that backend's own optimum — how much
	// worse (in percent) the native-chosen design prices under the
	// calibrated model than the calibrated model's own choice, and vice
	// versa, the maximum of the two directions. The paper's portability
	// claim is exactly that this penalty stays small even when absolute
	// costs (and greedy tie-breaks in the tail) differ.
	nativeUnderCalib, err := calib.WorkloadCost(ctx, e.W, configOf(nres.Indexes))
	if err != nil {
		return err
	}
	calibUnderNative, err := native.WorkloadCost(ctx, e.W, configOf(cres.Indexes))
	if err != nil {
		return err
	}
	cross := 0.0
	if cres.Objective > 0 {
		cross = (nativeUnderCalib - cres.Objective) / cres.Objective * 100
	}
	if nres.Objective > 0 {
		if p := (calibUnderNative - nres.Objective) / nres.Objective * 100; p > cross {
			cross = p
		}
	}
	if cross < 0 {
		cross = 0 // a foreign design can beat greedy's own pick; that's agreement
	}

	nativeKeys, calibKeys := indexKeys(nres.Indexes), indexKeys(cres.Indexes)
	x.Quality["design_jaccard_pct"] = jaccardPct(nativeKeys, calibKeys)
	x.Quality["cross_penalty_pct"] = cross
	x.Quality["native_improvement_pct"] = nres.Improvement() * 100
	x.Quality["calibrated_improvement_pct"] = cres.Improvement() * 100
	x.Counts["native_indexes"] = int64(len(nativeKeys))
	x.Counts["calibrated_indexes"] = int64(len(calibKeys))
	// Designs "agree" when each backend's choice is within 5% of the other
	// backend's own optimum under that backend's model — functional
	// interchangeability, the form of the paper's portability claim.
	x.Counts["designs_agree"] = bool01(cross <= 5.0)
	return nil
}

// configOf folds an index list into a configuration.
func configOf(ixs []*catalog.Index) *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	for _, ix := range ixs {
		cfg = cfg.WithIndex(ix)
	}
	return cfg
}

func indexKeys(ixs []*catalog.Index) []string {
	out := make([]string, 0, len(ixs))
	for _, ix := range ixs {
		out = append(out, ix.Key())
	}
	return out
}

// jaccardPct is the Jaccard similarity of two key sets in percent (100 for
// two empty sets: agreeing on "no indexes" is agreement).
func jaccardPct(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 100
	}
	in := map[string]bool{}
	for _, k := range a {
		in[k] = true
	}
	inter := 0
	union := len(a)
	for _, k := range b {
		if in[k] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union) * 100
}

// readviseQuestion is the interactive shape the readvise experiments ask: a
// tight first budget, then "what if I gave it a bit more storage?" — the
// follow-up whose basis stays feasible and whose advised design moves by a
// few indexes, not wholesale.
func (e *Env) readviseQuestion() (first, grown designer.AdviceOptions) {
	footprint := e.CandidateFootprint()
	return designer.AdviceOptions{StorageBudgetPages: footprint / 2},
		designer.AdviceOptions{StorageBudgetPages: footprint * 65 / 100}
}

// runIncrementalReadvise checks the interactive pillar at scale: a design
// session answers a budget-tweaked follow-up question warm and must agree
// exactly with a cold advise of the same question; the session's
// add-index/re-evaluate loop re-prices only the affected queries.
func runIncrementalReadvise(e *Env, spec Spec, x *Experiment) error {
	ctx := context.Background()
	firstOpts, grownOpts := e.readviseQuestion()

	// Session designer: one cold advise primes the handle, then the warm
	// follow-up.
	d1, fw1, err := e.freshFacade()
	if err != nil {
		return err
	}
	sess := d1.NewDesignSession()
	if _, err := sess.Advise(ctx, fw1, firstOpts); err != nil {
		return err
	}
	warm, stats, err := sess.ReAdvise(ctx, fw1, grownOpts)
	if err != nil {
		return err
	}

	// Cold reference: a fresh designer (cold INUM cache, no handle) asked
	// the grown-budget question directly.
	d2, fw2, err := e.freshFacade()
	if err != nil {
		return err
	}
	cold, err := d2.Advise(ctx, fw2, grownOpts)
	if err != nil {
		return err
	}

	x.Counts["designs_agree"] = bool01(slices.EqualFunc(warm.Indexes, cold.Indexes,
		func(a, b designer.Index) bool { return a.Key() == b.Key() }))
	x.Counts["reports_agree"] = bool01(warm.Report.BaseTotal == cold.Report.BaseTotal &&
		warm.Report.NewTotal == cold.Report.NewTotal)
	x.Counts["warm_indexes"] = int64(len(warm.Indexes))
	x.Counts["cold_indexes"] = int64(len(cold.Indexes))
	x.Counts["report_recosted_queries"] = int64(stats.RecostedQueries)
	x.Counts["report_reused_queries"] = int64(stats.ReusedQueries)
	x.Counts["candidates_reused"] = bool01(stats.CandidatesReused)
	x.Counts["solver_warm_started"] = bool01(stats.SolverWarmStarted)

	// The session evaluate delta loop: evaluate, add one index, evaluate
	// again; only queries on the touched table may be re-priced, and the
	// numbers must match a cold session evaluating the same design.
	if _, err := sess.Evaluate(ctx, fw1); err != nil {
		return err
	}
	if _, err := sess.AddIndex("specobj", "z"); err != nil {
		return err
	}
	deltaRep, err := sess.Evaluate(ctx, fw1)
	if err != nil {
		return err
	}
	recosted, reused := sess.LastEvaluateDelta()
	coldSess := d1.NewDesignSession()
	if _, err := coldSess.AddIndex("specobj", "z"); err != nil {
		return err
	}
	coldRep, err := coldSess.Evaluate(ctx, fw1)
	if err != nil {
		return err
	}
	x.Counts["eval_recosted_queries"] = int64(recosted)
	x.Counts["eval_reused_queries"] = int64(reused)
	x.Counts["eval_delta_exact"] = bool01(deltaRep.BaseTotal == coldRep.BaseTotal && deltaRep.NewTotal == coldRep.NewTotal)
	return nil
}

// runCoPhyVsGreedy sweeps storage budgets comparing CoPhy's cost and proven
// gap against the DTA-style greedy baseline (E7), with exhaustive ground
// truth when the candidate set is small enough to enumerate.
func runCoPhyVsGreedy(e *Env, spec Spec, x *Experiment) error {
	ctx := context.Background()
	total := e.CandidateFootprint()
	for _, frac := range []struct {
		label string
		f     float64
	}{{"budget25", 0.25}, {"budget50", 0.5}, {"budget100", 1.0}} {
		budget := int64(float64(total) * frac.f)
		r, err := e.CoPhy(budget, 0)
		if err != nil {
			return err
		}
		g, err := greedy.Advise(ctx, e.View, e.Cands, e.W, budget)
		if err != nil {
			return err
		}
		if g.Objective > 0 {
			x.Quality[frac.label+"_cophy_wins_pct"] = (g.Objective - r.Objective) / g.Objective * 100
		}
		x.Quality[frac.label+"_gap_pct"] = r.Gap() * 100
		x.Quality[frac.label+"_cophy_improvement_pct"] = r.Improvement() * 100
		x.Counts[frac.label+"_cophy_indexes"] = int64(len(r.Indexes))
		x.Counts[frac.label+"_greedy_indexes"] = int64(len(g.Indexes))

		// Ground truth at the midpoint budget: cost ratio vs the exhaustive
		// optimum, only when 2^|candidates| is enumerable.
		if frac.label == "budget50" && len(e.Cands) <= greedy.MaxExhaustiveCandidates {
			ex, err := greedy.Exhaustive(ctx, e.View, e.Cands, e.W, budget)
			if err != nil {
				return err
			}
			if ex.Objective > 0 {
				x.Quality["budget50_optimal_ratio"] = r.Objective / ex.Objective
			}
			x.Counts["budget50_exhaustive_done"] = 1
		}
	}
	x.Counts["candidates"] = int64(len(e.Cands))
	return nil
}

// profileStream draws the online experiments' query stream from the Env's
// profile (stream seed = dataset seed + 2) and prices it under the empty
// configuration on v, an online view as the tuner's own are — the static
// no-index baseline adaptive savings are measured against.
func (e *Env) profileStream(v *engine.View, streamLen int) (stream []workload.Query, static float64, err error) {
	p, err := workload.ProfileByName(e.Profile)
	if err != nil {
		return nil, 0, err
	}
	stream, err = p.GenerateStream(e.Store.Schema, e.Seed+2, streamLen)
	if err != nil {
		return nil, 0, err
	}
	empty := catalog.NewConfiguration()
	for _, q := range stream {
		c, err := v.QueryCost(q, empty)
		if err != nil {
			return nil, 0, err
		}
		static += c
	}
	return stream, static, nil
}

// savingsPct is the adaptive run's saving against the static baseline.
func savingsPct(static, adaptive float64) float64 {
	if static > 0 {
		return (static - adaptive) / static * 100
	}
	return 0
}

// runCOLTConvergence streams profile-drawn queries through a fresh COLT
// tuner over an unshared engine and records the adaptive savings against
// the static no-index baseline (E6).
func runCOLTConvergence(e *Env, spec Spec, x *Experiment) error {
	eng := e.FreshEngine()
	stream, static, err := e.profileStream(eng.PinOnline(), spec.StreamLen)
	if err != nil {
		return err
	}
	opts := colt.DefaultOptions()
	opts.EpochLength = spec.EpochLen
	tuner := colt.New(eng, nil, opts)
	defer tuner.Close()
	adaptive, err := tuner.ObserveAll(context.Background(), stream)
	if err != nil {
		return err
	}
	x.Quality["savings_pct"] = savingsPct(static, adaptive)
	x.Counts["queries"] = int64(len(stream))
	reports := tuner.Reports()
	var changes int64
	for _, r := range reports {
		changes += bool01(r.ConfigChanged)
	}
	x.Counts["epochs"] = int64(len(reports))
	x.Counts["config_changes"] = changes
	x.Counts["alerts"] = int64(len(tuner.Alerts()))
	return nil
}

// runColtAutopilot streams the same profile-drawn queries through the
// autopilot's closed loop over a fresh engine — a generous build budget (so
// adopted indexes materialize within an epoch or two even on the short
// smoke stream), probation/rollback, and a capped exhaustive oracle — and
// records regret-over-time as the trajectory metric: the gap between the
// live configuration and the oracle-best design should shrink toward zero
// as adopted indexes materialize.
func runColtAutopilot(e *Env, spec Spec, x *Experiment) error {
	eng := e.FreshEngine()
	stream, static, err := e.profileStream(eng.PinOnline(), spec.StreamLen)
	if err != nil {
		return err
	}
	opts := autopilot.DefaultOptions()
	opts.Colt.EpochLength = spec.EpochLen
	opts.BuildBudgetPages = 512
	opts.ProbationEpochs = 2
	opts.RegretCandidates = 6
	ap, err := autopilot.New(eng, nil, opts)
	if err != nil {
		return err
	}
	defer ap.Close()
	adaptive, err := ap.ObserveAll(context.Background(), stream)
	if err != nil {
		return err
	}

	// Regret at the first and last sampled epochs, and the best reached
	// anywhere in the run.
	var first, final, best float64
	regret := ap.Regret()
	if len(regret) > 0 {
		first, final, best = regret[0].RegretPct, regret[len(regret)-1].RegretPct, regret[0].RegretPct
		for _, r := range regret {
			best = math.Min(best, r.RegretPct)
		}
	}
	st := ap.Status()
	x.Quality["savings_pct"] = savingsPct(static, adaptive)
	x.Quality["first_regret_pct"] = first
	x.Quality["final_regret_pct"] = final
	x.Quality["min_regret_pct"] = best
	x.Counts["queries"] = int64(len(stream))
	x.Counts["epochs"] = int64(st.Epoch)
	x.Counts["decisions"] = int64(st.Decisions)
	x.Counts["builds"] = st.BuildsCompleted
	x.Counts["build_pages"] = st.BuildPages
	x.Counts["rollbacks"] = st.Rollbacks
	x.Counts["regret_samples"] = int64(len(regret))
	x.Counts["regret_improved"] = bool01(final <= first)
	x.Counts["final_under_5pct"] = bool01(final <= 5.0)
	return nil
}

// runInteractionSchedule analyzes the advised set's interaction graph (E2)
// and compares interaction-aware against oblivious materialization order
// (E9). Fewer than two advised indexes leave only the count cell.
func runInteractionSchedule(e *Env, spec Spec, x *Experiment) error {
	ctx := context.Background()
	advised, err := e.Advised()
	if err != nil {
		return err
	}
	x.Counts["advised_indexes"] = int64(len(advised))
	if len(advised) < 2 {
		return nil
	}
	opts := interaction.DefaultOptions()
	opts.SampleContexts = 4
	g, err := interaction.AnalyzeView(ctx, e.View, e.W, advised, opts)
	if err != nil {
		return err
	}
	var mass float64
	for _, edge := range g.Edges {
		mass += edge.Doi
	}
	x.Counts["edges"] = int64(len(g.Edges))
	x.Quality["total_doi"] = mass
	sched := schedule.New(e.Eng)
	aware, err := sched.GreedyView(ctx, e.View, e.W, advised)
	if err != nil {
		return err
	}
	obliv, err := sched.ObliviousView(ctx, e.View, e.W, advised)
	if err != nil {
		return err
	}
	x.Quality["aware_auc"] = aware.AUC
	x.Quality["oblivious_auc"] = obliv.AUC
	if obliv.AUC > 0 {
		x.Quality["aware_wins_pct"] = (obliv.AUC - aware.AUC) / obliv.AUC * 100
	}
	return nil
}

// ScalingWidths are the fixed sweep widths parallel_scaling runs at.
// Fixed — never GOMAXPROCS — so the experiment's deterministic cells are
// identical on any machine, including 1-core CI.
var ScalingWidths = []int{1, 2, 4, 16}

// runParallelScaling runs the costing hot path — the configuration sweep
// and the warm re-advise — at each fixed width and compares every width's
// answers with the serial ones (width 1, the first): the determinism
// contract as a recorded metric. Every *_exact count must be 1 and every
// *_max_abs_diff quality exactly 0 on any machine: parallelism changes
// latency, never results.
func runParallelScaling(e *Env, spec Spec, x *Experiment) error {
	ctx := context.Background()
	cfgs := e.SweepFamily(32)
	x.Counts["configs"] = int64(len(cfgs))
	x.Counts["queries"] = int64(len(e.W.Queries))

	var ref []float64
	var refKeys []string
	var refBase, refNew float64
	for _, width := range ScalingWidths {
		e.Eng.SetWorkers(width)
		costs, err := e.View.SweepConfigs(ctx, e.W, cfgs)
		e.Eng.SetWorkers(0)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = costs
		}
		sweepExact, sweepMaxDiff := costParity(ref, costs)
		keys, baseTotal, newTotal, err := e.readviseAtWidth(width)
		if err != nil {
			return err
		}
		if refKeys == nil {
			refKeys, refBase, refNew = keys, baseTotal, newTotal
		}
		readviseExact := baseTotal == refBase && newTotal == refNew && slices.Equal(keys, refKeys)
		key := fmt.Sprintf("w%02d", width)
		x.Quality[key+"_sweep_max_abs_diff"] = sweepMaxDiff
		x.Counts[key+"_sweep_exact"] = bool01(sweepExact)
		x.Counts[key+"_readvise_exact"] = bool01(readviseExact)
	}
	return nil
}

// readviseAtWidth answers the incremental-readvise follow-up question on
// a fresh designer bounded to the given sweep width, returning the advised
// design's index keys and the report totals.
func (e *Env) readviseAtWidth(workers int) (keys []string, baseTotal, newTotal float64, err error) {
	ctx := context.Background()
	d, fw, err := e.freshFacade()
	if err != nil {
		return nil, 0, 0, err
	}
	d.SetWorkers(workers)
	first, grown := e.readviseQuestion()
	sess := d.NewDesignSession()
	if _, err := sess.Advise(ctx, fw, first); err != nil {
		return nil, 0, 0, err
	}
	adv, _, err := sess.ReAdvise(ctx, fw, grown)
	if err != nil {
		return nil, 0, 0, err
	}
	keys = make([]string, len(adv.Indexes))
	for i, ix := range adv.Indexes {
		keys[i] = ix.Key()
	}
	return keys, adv.Report.BaseTotal, adv.Report.NewTotal, nil
}

// costParity compares a cost vector against the serial reference: exact
// float64 equality per element, plus the maximum absolute difference.
func costParity(ref, costs []float64) (exact bool, maxDiff float64) {
	if len(ref) != len(costs) {
		return false, 0
	}
	exact = true
	for i := range ref {
		if costs[i] != ref[i] {
			exact = false
		}
		d := costs[i] - ref[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	return exact, maxDiff
}

// runWhatIfSession evaluates Scenario 1's demo design — two composite
// photoobj indexes plus the specobj join key — over the workload and
// records the workload-level benefit (E4).
func runWhatIfSession(e *Env, spec Spec, x *Experiment) error {
	cfg := catalog.NewConfiguration()
	for _, ixSpec := range [][]string{
		{"photoobj", "ra", "dec"}, {"photoobj", "type", "psfmag_r"}, {"specobj", "bestobjid"},
	} {
		ix, err := e.View.Session().HypotheticalIndex(ixSpec[0], ixSpec[1:]...)
		if err != nil {
			return err
		}
		cfg = cfg.WithIndex(ix)
	}
	rep, err := e.View.Evaluate(context.Background(), e.W, cfg)
	if err != nil {
		return err
	}
	x.Quality["benefit_pct"] = rep.AvgBenefitPct()
	x.Counts["indexes"] = int64(len(cfg.Indexes))
	return nil
}

// runOfflineAdvisor runs the full Scenario 2 pipeline (indexes + partitions
// + interactions) on a fresh designer and records the advised improvement
// (E5).
func runOfflineAdvisor(e *Env, spec Spec, x *Experiment) error {
	d, fw, err := e.freshFacade()
	if err != nil {
		return err
	}
	advice, err := d.Advise(context.Background(), fw, designer.AdviceOptions{Partitions: true, Interactions: true})
	if err != nil {
		return err
	}
	x.Quality["improvement_pct"] = advice.Report.AvgBenefitPct()
	x.Counts["queries"] = int64(len(e.W.Queries))
	return nil
}

// runAutoPart runs partition-only advice (no indexes) over the photometric
// 4-template workload that motivates vertical partitioning (E3/E11), drawn
// with workload seed = dataset seed + 3.
func runAutoPart(e *Env, spec Spec, x *Experiment) error {
	w, err := workload.NewWorkloadFrom(e.Store.Schema, e.Seed+3, 12, []workload.Template{
		*workload.TemplateByName("cone_search"),
		*workload.TemplateByName("bright_stars"),
		*workload.TemplateByName("mag_range"),
		*workload.TemplateByName("ra_slice"),
	})
	if err != nil {
		return err
	}
	res, err := autopart.New(e.Eng).AdviseView(context.Background(), e.View, w, nil, autopart.DefaultOptions())
	if err != nil {
		return err
	}
	x.Quality["improvement_pct"] = res.Improvement() * 100
	x.Counts["queries"] = int64(len(w.Queries))
	return nil
}

// runSizeModel compares honest what-if sizing against the size-zero model
// on a selective range scan and records honest/zero, the distortion factor
// (E12).
func runSizeModel(e *Env, spec Spec, x *Experiment) error {
	ix, err := e.View.Session().HypotheticalIndex("photoobj", "psfmag_r")
	if err != nil {
		return err
	}
	cfg := catalog.NewConfiguration().WithIndex(ix)
	stmt, err := sqlparse.ParseSelect("SELECT psfmag_r FROM photoobj WHERE psfmag_r BETWEEN 18 AND 20")
	if err != nil {
		return err
	}
	if err := sqlparse.Resolve(stmt, e.Store.Schema); err != nil {
		return err
	}
	honest, err := e.View.FullCost(stmt, cfg)
	if err != nil {
		return err
	}
	zero, err := e.View.WithOptions(optimizer.Options{ZeroSizeWhatIf: true}).Session().Cost(stmt, cfg)
	if err != nil {
		return err
	}
	if zero == 0 {
		return errors.New("bench: zero-size cost is 0")
	}
	x.Quality["honest_vs_zero_x"] = honest / zero
	x.Counts["queries"] = 1
	return nil
}

// runCandidateAblation re-enumerates candidates under a per-table cap and
// records the advised improvement at that width (the enumeration-width
// ablation), each cap on a cold engine.
func runCandidateAblation(e *Env, spec Spec, x *Experiment) error {
	for _, cap := range []int{2, 6, 12} {
		opts := whatif.DefaultCandidateOptions()
		opts.MaxPerTable = cap
		cands := e.View.Session().GenerateCandidates(e.W, opts)
		eng := e.FreshEngine()
		res, err := cophy.New(eng, cands).AdviseView(context.Background(), eng.Pin(), e.W, cophy.DefaultOptions())
		if err != nil {
			return err
		}
		label := fmt.Sprintf("cap%d", cap)
		x.Quality[label+"_improvement_pct"] = res.Improvement() * 100
		x.Counts[label+"_candidates"] = int64(len(cands))
	}
	return nil
}

// runSolverScaling counts the branch-and-bound nodes the solver needs on
// growing n-binary knapsack-shaped programs.
func runSolverScaling(e *Env, spec Spec, x *Experiment) error {
	for _, n := range []int{10, 20, 40} {
		p := lp.NewProblem(n)
		coefs := map[int]float64{}
		for i := 0; i < n; i++ {
			p.Binary[i] = true
			p.Objective[i] = -float64(1 + i%7)
			coefs[i] = float64(1 + (i*3)%5)
		}
		p.AddConstraint(coefs, lp.LE, float64(n))
		sol := lp.SolveMIP(context.Background(), p, lp.MIPOptions{})
		if sol.Status != lp.StatusOptimal {
			return fmt.Errorf("bench: MIP status %v", sol.Status)
		}
		x.Counts[fmt.Sprintf("n%d_nodes", n)] = int64(sol.Nodes)
	}
	return nil
}

// runDesignSpaceWidth compares index-only vs widened (projections +
// aggregate views) candidate spaces over the aggregate-bearing workload
// profiles. It builds its own workloads from the Env's dataset, so it is
// workload-insensitive and runs once per (size, seed).
func runDesignSpaceWidth(e *Env, spec Spec, x *Experiment) error {
	for _, profile := range []string{"template_heavy", "update_heavy"} {
		if err := e.designSpaceWidth(profile, spec.Queries, x); err != nil {
			return fmt.Errorf("%s: %w", profile, err)
		}
	}
	return nil
}

// designSpaceWidth measures what admitting non-index structures buys on one
// profile: CoPhy's best total workload cost when the candidate space holds
// only secondary indexes, versus the widened space that also admits
// covering projections (INCLUDE columns) and single-table aggregate views.
// The workload is generated from a derived seed (independent of the Env's
// own), and the two spaces are solved on fresh engines so neither run warms
// the other's caches. The widened selection is scheduled greedily so every
// chosen structure has an explained place in the materialization order.
func (e *Env) designSpaceWidth(profile string, numQ int, x *Experiment) error {
	ctx := context.Background()
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return err
	}
	w, err := p.Generate(e.Store.Schema, e.Seed+5, numQ)
	if err != nil {
		return err
	}
	advise := func(eng *engine.Engine, v *engine.View, opts whatif.CandidateOptions) (*cophy.Result, int, error) {
		cands := v.Session().GenerateCandidates(w, opts)
		res, err := cophy.New(eng, cands).AdviseView(ctx, v, w, cophy.DefaultOptions())
		return res, len(cands), err
	}
	baseEng := e.FreshEngine()
	base, baseCands, err := advise(baseEng, baseEng.Pin(), whatif.DefaultCandidateOptions())
	if err != nil {
		return err
	}
	wopts := whatif.DefaultCandidateOptions()
	wopts.IncludeProjections = true
	wopts.IncludeAggViews = true
	wideEng := e.FreshEngine()
	wideView := wideEng.Pin()
	wide, wideCands, err := advise(wideEng, wideView, wopts)
	if err != nil {
		return err
	}
	var projections, aggViews, steps int
	for _, ix := range wide.Indexes {
		switch ix.Kind {
		case catalog.KindProjection:
			projections++
		case catalog.KindAggView:
			aggViews++
		}
	}
	if len(wide.Indexes) > 0 {
		sched, err := schedule.New(wideEng).GreedyView(ctx, wideView, w, wide.Indexes)
		if err != nil {
			return err
		}
		steps = len(sched.Steps)
	}
	x.Quality[profile+"_base_cost"] = base.Objective
	x.Quality[profile+"_wide_cost"] = wide.Objective
	if base.Objective > 0 {
		x.Quality[profile+"_wide_savings_pct"] = (base.Objective - wide.Objective) / base.Objective * 100
	}
	x.Counts[profile+"_base_indexes"] = int64(len(base.Indexes))
	x.Counts[profile+"_wide_structures"] = int64(len(wide.Indexes))
	x.Counts[profile+"_projections_chosen"] = int64(projections)
	x.Counts[profile+"_aggviews_chosen"] = int64(aggViews)
	x.Counts[profile+"_base_candidates"] = int64(baseCands)
	x.Counts[profile+"_wide_candidates"] = int64(wideCands)
	x.Counts[profile+"_schedule_steps"] = int64(steps)
	x.Counts[profile+"_strict_improvement"] = bool01(wide.Objective < base.Objective)
	return nil
}
