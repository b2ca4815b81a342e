package bench

import (
	"context"
	"errors"
	"fmt"

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

// PipelineCallsAvoided runs a full designer pipeline (CoPhy + interaction
// analysis + scheduling) on a cold engine and reports how many cached
// costings were served per full optimizer invocation — the
// latency-independent form of the paper's "orders of magnitude" claim.
func (e *Env) PipelineCallsAvoided() (ratio float64, err error) {
	ctx := context.Background()
	eng := e.FreshEngine()
	adv := cophy.New(eng, e.Cands)
	res, err := adv.Advise(ctx, e.W, cophy.DefaultOptions())
	if err != nil {
		return 0, err
	}
	if len(res.Indexes) >= 2 {
		if _, err := interaction.Analyze(ctx, eng, e.W, res.Indexes, interaction.DefaultOptions()); err != nil {
			return 0, err
		}
		sched := schedule.New(eng)
		if _, err := sched.Greedy(ctx, e.W, res.Indexes); err != nil {
			return 0, err
		}
	}
	full, cached := eng.CacheStats()
	if full > 0 {
		ratio = float64(cached) / float64(full)
	}
	return ratio, nil
}

// CoPhy runs the CoPhy advisor over the Env's workload and candidates with
// the given storage budget (0 = unlimited) and node budget (0 = prove
// optimality).
func (e *Env) CoPhy(budgetPages int64, nodeBudget int) (*cophy.Result, error) {
	opts := cophy.DefaultOptions()
	opts.StorageBudgetPages = budgetPages
	opts.NodeBudget = nodeBudget
	return cophy.New(e.Eng, e.Cands).Advise(context.Background(), e.W, opts)
}

// Greedy runs the DTA-style greedy baseline at a storage budget.
func (e *Env) Greedy(budgetPages int64) (*greedy.Result, error) {
	return greedy.New(e.Eng, e.Cands).Advise(context.Background(), e.W,
		greedy.Options{StorageBudgetPages: budgetPages, BenefitPerPage: true})
}

// Exhaustive enumerates every candidate subset within the budget — ground
// truth for small candidate sets.
func (e *Env) Exhaustive(budgetPages int64) (*greedy.Result, error) {
	return greedy.Exhaustive(context.Background(), e.Eng, e.Cands, e.W, budgetPages)
}

// InteractionGraph analyzes the advised index set's interactions with the
// given number of sampled contexts (E2).
func (e *Env) InteractionGraph(sampleContexts int) (*interaction.Graph, error) {
	advised, err := e.Advised()
	if err != nil {
		return nil, err
	}
	if len(advised) < 2 {
		return nil, nil
	}
	opts := interaction.DefaultOptions()
	opts.SampleContexts = sampleContexts
	return interaction.Analyze(context.Background(), e.Eng, e.W, advised, opts)
}

// Schedules builds the interaction-aware and oblivious materialization
// schedules over the advised set (E9). Both are nil when fewer than two
// indexes are advised.
func (e *Env) Schedules() (aware, oblivious *schedule.Schedule, err error) {
	advised, err := e.Advised()
	if err != nil {
		return nil, nil, err
	}
	if len(advised) < 2 {
		return nil, nil, nil
	}
	sched := schedule.New(e.Eng)
	aware, err = sched.Greedy(context.Background(), e.W, advised)
	if err != nil {
		return nil, nil, err
	}
	oblivious, err = sched.Oblivious(context.Background(), e.W, advised)
	if err != nil {
		return nil, nil, err
	}
	return aware, oblivious, nil
}

// COLTResult is the outcome of one online-tuning run over a stream.
type COLTResult struct {
	SavingsPct    float64 // adaptive vs static-empty cumulative cost
	Queries       int
	Epochs        int
	ConfigChanges int
	Alerts        int
}

// profileStream draws the online experiments' query stream from the Env's
// profile (stream seed = dataset seed + 2) and prices it under the empty
// configuration on eng — the static no-index baseline adaptive savings are
// measured against.
func (e *Env) profileStream(eng *engine.Engine, streamLen int) (stream []workload.Query, static float64, err error) {
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
		c, err := eng.QueryCost(q, empty)
		if err != nil {
			return nil, 0, err
		}
		static += c
	}
	return stream, static, nil
}

// COLTStream streams profile-drawn queries through a fresh COLT tuner over
// an unshared engine and reports savings against the static baseline (E6).
func (e *Env) COLTStream(streamLen, epochLen int) (*COLTResult, error) {
	eng := e.FreshEngine()
	stream, static, err := e.profileStream(eng, streamLen)
	if err != nil {
		return nil, err
	}
	opts := colt.DefaultOptions()
	opts.EpochLength = epochLen
	tuner := colt.New(eng, nil, opts)
	defer tuner.Close()
	adaptive, err := tuner.ObserveAll(context.Background(), stream)
	if err != nil {
		return nil, err
	}
	out := &COLTResult{
		Queries: len(stream),
		Alerts:  len(tuner.Alerts()),
	}
	if static > 0 {
		out.SavingsPct = (static - adaptive) / static * 100
	}
	for _, r := range tuner.Reports() {
		out.Epochs++
		if r.ConfigChanged {
			out.ConfigChanges++
		}
	}
	return out, nil
}

// AutopilotResult is the outcome of one closed-loop tuning run: COLT under
// the autopilot supervisor, with regret against the oracle-best design as
// the trajectory metric.
type AutopilotResult struct {
	SavingsPct     float64 // adaptive vs static-empty cumulative cost
	FirstRegretPct float64 // regret at the first sampled epoch
	FinalRegretPct float64 // regret at the last sampled epoch
	MinRegretPct   float64 // best regret reached anywhere in the run
	Queries        int
	Epochs         int
	Decisions      int
	Builds         int64
	BuildPages     int64
	Rollbacks      int64
	RegretSamples  int
}

// AutopilotStream drives the colt_autopilot experiment: the profile-drawn
// stream through autopilot.New over a fresh engine, a generous build
// budget (so adopted indexes materialize within an epoch or two even on
// the short smoke stream), and a capped exhaustive oracle for the regret
// samples.
func (e *Env) AutopilotStream(streamLen, epochLen int) (*AutopilotResult, error) {
	eng := e.FreshEngine()
	stream, static, err := e.profileStream(eng, streamLen)
	if err != nil {
		return nil, err
	}

	opts := autopilot.DefaultOptions()
	opts.Colt.EpochLength = epochLen
	opts.BuildBudgetPages = 512
	opts.ProbationEpochs = 2
	opts.RegretCandidates = 6
	ap, err := autopilot.New(eng, nil, opts)
	if err != nil {
		return nil, err
	}
	defer ap.Close()

	adaptive, err := ap.ObserveAll(context.Background(), stream)
	if err != nil {
		return nil, err
	}
	out := &AutopilotResult{Queries: len(stream)}
	if static > 0 {
		out.SavingsPct = (static - adaptive) / static * 100
	}
	st := ap.Status()
	out.Epochs = st.Epoch
	out.Decisions = st.Decisions
	out.Builds = st.BuildsCompleted
	out.BuildPages = st.BuildPages
	out.Rollbacks = st.Rollbacks
	regret := ap.Regret()
	out.RegretSamples = len(regret)
	if len(regret) > 0 {
		out.FirstRegretPct = regret[0].RegretPct
		out.FinalRegretPct = regret[len(regret)-1].RegretPct
		out.MinRegretPct = regret[0].RegretPct
		for _, r := range regret {
			if r.RegretPct < out.MinRegretPct {
				out.MinRegretPct = r.RegretPct
			}
		}
	}
	return out, nil
}

// ScalingWidths are the fixed sweep widths parallel_scaling runs at.
// Fixed — never GOMAXPROCS — so the experiment's deterministic cells are
// identical on any machine, including 1-core CI.
var ScalingWidths = []int{1, 2, 4, 16}

// ScalingCell is one width's verdict in the parallel_scaling experiment.
type ScalingCell struct {
	Workers       int
	SweepExact    bool    // sweep costs bit-identical to the serial sweep
	SweepMaxDiff  float64 // max |cost - serial cost| (0 when exact)
	ReadviseExact bool    // warm re-advise design + report identical to serial
}

// ScalingResult is the outcome of one parallel_scaling run: the per-width
// cells.
type ScalingResult struct {
	Configs int
	Cells   []ScalingCell
}

// ParallelScaling runs the sweep and the warm re-advise at each fixed width
// and compares every width's answers with the serial ones — the determinism
// contract as a recorded metric.
func (e *Env) ParallelScaling() (*ScalingResult, error) {
	ctx := context.Background()
	cfgs := e.SweepFamily(32)
	out := &ScalingResult{Configs: len(cfgs)}

	var ref []float64 // serial sweep costs (width 1, the first cell)
	var refKeys []string
	var refBase, refNew float64
	for _, width := range ScalingWidths {
		cell := ScalingCell{Workers: width}
		e.Eng.SetWorkers(width)
		costs, err := e.Eng.SweepConfigs(ctx, e.W, cfgs)
		e.Eng.SetWorkers(0)
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = costs
		}
		cell.SweepExact, cell.SweepMaxDiff = costParity(ref, costs)
		keys, baseTotal, newTotal, err := e.readviseAtWidth(width)
		if err != nil {
			return nil, err
		}
		if refKeys == nil {
			refKeys, refBase, refNew = keys, baseTotal, newTotal
		}
		cell.ReadviseExact = baseTotal == refBase && newTotal == refNew && len(keys) == len(refKeys)
		if cell.ReadviseExact {
			for i := range keys {
				if keys[i] != refKeys[i] {
					cell.ReadviseExact = false
					break
				}
			}
		}
		out.Cells = append(out.Cells, cell)
	}

	return out, nil
}

// readviseAtWidth answers the incremental-readvise follow-up question (the
// same first-budget → grown-budget transition IncrementalReadvise asks) on a
// fresh designer bounded to the given sweep width, returning the advised
// design's index keys and the report totals.
func (e *Env) readviseAtWidth(workers int) (keys []string, baseTotal, newTotal float64, err error) {
	ctx := context.Background()
	d, err := e.FreshDesigner()
	if err != nil {
		return nil, 0, 0, err
	}
	d.SetWorkers(workers)
	fw, err := e.FacadeWorkload(d)
	if err != nil {
		return nil, 0, 0, err
	}
	footprint := e.CandidateFootprint()
	firstOpts := designer.AdviceOptions{StorageBudgetPages: footprint / 2}
	grownOpts := designer.AdviceOptions{StorageBudgetPages: footprint * 65 / 100}
	sess := d.NewDesignSession()
	if _, err := sess.Advise(ctx, fw, firstOpts); err != nil {
		return nil, 0, 0, err
	}
	adv, _, err := sess.ReAdvise(ctx, fw, grownOpts)
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

// WhatIfDemoConfig builds Scenario 1's demo design: two composite photoobj
// indexes plus the specobj join key.
func (e *Env) WhatIfDemoConfig() (*catalog.Configuration, error) {
	cfg := catalog.NewConfiguration()
	for _, spec := range [][]string{{"ra", "dec"}, {"type", "psfmag_r"}} {
		ix, err := e.Eng.HypotheticalIndex("photoobj", spec...)
		if err != nil {
			return nil, err
		}
		cfg = cfg.WithIndex(ix)
	}
	ix, err := e.Eng.HypotheticalIndex("specobj", "bestobjid")
	if err != nil {
		return nil, err
	}
	return cfg.WithIndex(ix), nil
}

// WhatIfBenefit evaluates a hypothetical configuration over the workload
// and returns the workload-level benefit percentage (E4).
func (e *Env) WhatIfBenefit(cfg *catalog.Configuration) (float64, error) {
	rep, err := e.Eng.Evaluate(context.Background(), e.W, cfg)
	if err != nil {
		return 0, err
	}
	return rep.AvgBenefitPct(), nil
}

// OfflineAdvise runs the full Scenario 2 pipeline (indexes + partitions +
// interactions) on a fresh designer and returns the advised improvement
// percentage (E5).
func (e *Env) OfflineAdvise() (improvementPct float64, err error) {
	d, err := e.FreshDesigner()
	if err != nil {
		return 0, err
	}
	fw, err := e.FacadeWorkload(d)
	if err != nil {
		return 0, err
	}
	advice, err := d.Advise(context.Background(), fw, designer.AdviceOptions{Partitions: true, Interactions: true})
	if err != nil {
		return 0, err
	}
	return advice.Report.AvgBenefitPct(), nil
}

// AutoPartWorkload draws the photometric 4-template workload that motivates
// vertical partitioning (E3/E11), with workload seed = dataset seed + 3.
func (e *Env) AutoPartWorkload() (*workload.Workload, error) {
	return workload.NewWorkloadFrom(e.Store.Schema, e.Seed+3, 12, []workload.Template{
		*workload.TemplateByName("cone_search"),
		*workload.TemplateByName("bright_stars"),
		*workload.TemplateByName("mag_range"),
		*workload.TemplateByName("ra_slice"),
	})
}

// AutoPartImprovement runs partition-only advice (no indexes) over the
// photometric workload and returns the improvement percentage.
func (e *Env) AutoPartImprovement(w *workload.Workload) (float64, error) {
	res, err := autopart.New(e.Eng).Advise(context.Background(), w, nil, autopart.DefaultOptions())
	if err != nil {
		return 0, err
	}
	return res.Improvement() * 100, nil
}

// SizeModelDistortion compares honest what-if sizing against the size-zero
// model on a selective range scan and returns honest/zero (E12).
func (e *Env) SizeModelDistortion() (float64, error) {
	ix, err := e.Eng.HypotheticalIndex("photoobj", "psfmag_r")
	if err != nil {
		return 0, err
	}
	cfg := catalog.NewConfiguration().WithIndex(ix)
	stmt, err := sqlparse.ParseSelect("SELECT psfmag_r FROM photoobj WHERE psfmag_r BETWEEN 18 AND 20")
	if err != nil {
		return 0, err
	}
	if err := sqlparse.Resolve(stmt, e.Store.Schema); err != nil {
		return 0, err
	}
	honest, err := e.Eng.FullCost(stmt, cfg)
	if err != nil {
		return 0, err
	}
	zeroEnv := e.Eng.Env().WithConfig(cfg).WithOptions(optimizer.Options{ZeroSizeWhatIf: true})
	zero, err := zeroEnv.Cost(stmt)
	if err != nil {
		return 0, err
	}
	if zero == 0 {
		return 0, errors.New("bench: zero-size cost is 0")
	}
	return honest / zero, nil
}

// AblationImprovement re-enumerates candidates with a per-table cap and
// reports the advised improvement at that width (the candidate-width
// ablation).
func (e *Env) AblationImprovement(maxPerTable int) (improvementPct float64, candidates int, err error) {
	opts := whatif.DefaultCandidateOptions()
	opts.MaxPerTable = maxPerTable
	cands := e.Eng.GenerateCandidates(e.W, opts)
	res, err := cophy.New(e.FreshEngine(), cands).Advise(context.Background(), e.W, cophy.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	return res.Improvement() * 100, len(cands), nil
}

// ReadviseResult is the outcome of one incremental re-advise check.
type ReadviseResult struct {
	DesignsAgree      bool // warm and cold chose identical index sets
	ReportsAgree      bool // ... with bit-identical report totals
	WarmIndexes       int
	ColdIndexes       int
	RecostedQueries   int // benefit-report delta split of the warm advise
	ReusedQueries     int
	CandidatesReused  bool
	SolverWarmStarted bool

	// Session evaluate delta loop: add one index, re-evaluate.
	EvalRecosted int
	EvalReused   int
	EvalExact    bool // delta report bit-identical to a cold session's
}

// IncrementalReadvise checks the interactive pillar at scale: a design
// session answers a budget-tweaked follow-up question warm and must agree
// exactly with a cold advise of the same question; the session's
// add-index/re-evaluate loop re-prices only the affected queries.
func (e *Env) IncrementalReadvise() (*ReadviseResult, error) {
	ctx := context.Background()
	// The interactive shape: a tight first budget, then "what if I gave it
	// a bit more storage?" — the follow-up whose basis stays feasible and
	// whose advised design moves by a few indexes, not wholesale.
	footprint := e.CandidateFootprint()
	first := footprint / 2
	grown := footprint * 65 / 100

	// Session designer: one cold advise primes the handle, then the warm
	// follow-up.
	d1, err := e.FreshDesigner()
	if err != nil {
		return nil, err
	}
	fw1, err := e.FacadeWorkload(d1)
	if err != nil {
		return nil, err
	}
	firstOpts := designer.AdviceOptions{StorageBudgetPages: first}
	tightOpts := designer.AdviceOptions{StorageBudgetPages: grown}
	sess := d1.NewDesignSession()
	if _, err := sess.Advise(ctx, fw1, firstOpts); err != nil {
		return nil, err
	}
	warm, stats, err := sess.ReAdvise(ctx, fw1, tightOpts)
	if err != nil {
		return nil, err
	}

	// Cold reference: a fresh designer (cold INUM cache, no handle) asked
	// the grown-budget question directly.
	d2, err := e.FreshDesigner()
	if err != nil {
		return nil, err
	}
	fw2, err := e.FacadeWorkload(d2)
	if err != nil {
		return nil, err
	}
	cold, err := d2.Advise(ctx, fw2, tightOpts)
	if err != nil {
		return nil, err
	}

	out := &ReadviseResult{
		WarmIndexes: len(warm.Indexes), ColdIndexes: len(cold.Indexes),
		RecostedQueries: stats.RecostedQueries, ReusedQueries: stats.ReusedQueries,
		CandidatesReused: stats.CandidatesReused, SolverWarmStarted: stats.SolverWarmStarted,
	}
	out.DesignsAgree = len(warm.Indexes) == len(cold.Indexes)
	if out.DesignsAgree {
		for i := range warm.Indexes {
			if warm.Indexes[i].Key() != cold.Indexes[i].Key() {
				out.DesignsAgree = false
				break
			}
		}
	}
	out.ReportsAgree = warm.Report.BaseTotal == cold.Report.BaseTotal &&
		warm.Report.NewTotal == cold.Report.NewTotal

	// The session evaluate delta loop: evaluate, add one index, evaluate
	// again; only queries on the touched table may be re-priced, and the
	// numbers must match a cold session evaluating the same design.
	if _, err := sess.Evaluate(ctx, fw1); err != nil {
		return nil, err
	}
	if _, err := sess.AddIndex("specobj", "z"); err != nil {
		return nil, err
	}
	deltaRep, err := sess.Evaluate(ctx, fw1)
	if err != nil {
		return nil, err
	}
	out.EvalRecosted, out.EvalReused = sess.LastEvaluateDelta()
	coldSess := d1.NewDesignSession()
	if _, err := coldSess.AddIndex("specobj", "z"); err != nil {
		return nil, err
	}
	coldRep, err := coldSess.Evaluate(ctx, fw1)
	if err != nil {
		return nil, err
	}
	out.EvalExact = deltaRep.BaseTotal == coldRep.BaseTotal && deltaRep.NewTotal == coldRep.NewTotal
	return out, nil
}

// PortabilityResult is the outcome of one cross-backend design comparison.
type PortabilityResult struct {
	NativeKeys        []string
	CalibratedKeys    []string
	NativeImprovement float64 // pct
	CalibImprovement  float64 // pct
	JaccardPct        float64
	// CrossPenaltyPct is the functional-agreement measure: how much worse
	// (in percent) the native-chosen design prices under the calibrated
	// model than the calibrated model's own choice, and vice versa — the
	// maximum of the two directions. Near zero means the designs are
	// interchangeable even where the index sets differ in their tails.
	CrossPenaltyPct  float64
	ReplayMaxAbsDiff float64
	ReplayAgrees     bool
	TraceCalls       int
}

// Portability runs the same greedy design selection under the native and
// calibrated backends and checks a recorded native trace replays exactly —
// the paper's portability claim in executable form: the chosen designs
// should agree across cost models even when absolute costs differ, and a
// trace-driven run needs no live engine at all.
func (e *Env) Portability(budgetPages int64) (*PortabilityResult, error) {
	ctx := context.Background()
	gopts := greedy.Options{StorageBudgetPages: budgetPages, BenefitPerPage: true}

	// Native selection, recorded.
	rec := engine.NewRecorder()
	nativeEng, err := e.FreshEngineWith(engine.BackendSpec{Recorder: rec})
	if err != nil {
		return nil, err
	}
	nres, err := greedy.New(nativeEng, e.Cands).Advise(ctx, e.W, gopts)
	if err != nil {
		return nil, err
	}

	// Calibrated selection: same candidates, same workload, different cost
	// economy.
	calibEng, err := e.FreshEngineWith(engine.BackendSpec{Kind: engine.BackendCalibrated})
	if err != nil {
		return nil, err
	}
	cres, err := greedy.New(calibEng, e.Cands).Advise(ctx, e.W, gopts)
	if err != nil {
		return nil, err
	}

	// Replay the recorded native calls: the selection must reproduce the
	// native design and every probed cost bit-for-bit.
	trace := rec.Trace()
	replayEng, err := e.FreshEngineWith(engine.BackendSpec{Kind: engine.BackendReplay, Trace: trace})
	if err != nil {
		return nil, err
	}
	rres, err := greedy.New(replayEng, e.Cands).Advise(ctx, e.W, gopts)
	if err != nil {
		return nil, fmt.Errorf("replaying the recorded native selection: %w", err)
	}
	var maxDiff float64
	for _, q := range e.W.Queries {
		want, err := nativeEng.QueryCost(q, nil)
		if err != nil {
			return nil, err
		}
		got, err := replayEng.QueryCost(q, nil)
		if err != nil {
			return nil, err
		}
		if d := got - want; d > maxDiff {
			maxDiff = d
		} else if -d > maxDiff {
			maxDiff = -d
		}
	}

	// Functional agreement: price each backend's chosen design under the
	// OTHER backend and compare with that backend's own optimum. The
	// paper's portability claim is exactly that this penalty stays small
	// even when absolute costs (and greedy tie-breaks in the tail) differ.
	nativeCfg := configOf(nres.Indexes)
	calibCfg := configOf(cres.Indexes)
	nativeUnderCalib, err := calibEng.WorkloadCost(e.W, nativeCfg)
	if err != nil {
		return nil, err
	}
	calibUnderNative, err := nativeEng.WorkloadCost(e.W, calibCfg)
	if err != nil {
		return nil, err
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

	out := &PortabilityResult{
		NativeKeys:        indexKeys(nres.Indexes),
		CalibratedKeys:    indexKeys(cres.Indexes),
		NativeImprovement: nres.Improvement() * 100,
		CalibImprovement:  cres.Improvement() * 100,
		JaccardPct:        jaccardPct(indexKeys(nres.Indexes), indexKeys(cres.Indexes)),
		CrossPenaltyPct:   cross,
		ReplayMaxAbsDiff:  maxDiff,
		ReplayAgrees:      maxDiff == 0 && equalKeySets(indexKeys(nres.Indexes), indexKeys(rres.Indexes)) && rres.Objective == nres.Objective,
		TraceCalls:        trace.Len(),
	}
	return out, nil
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

func equalKeySets(a, b []string) bool { return jaccardPct(a, b) == 100 }

// SolverProblem builds the n-binary knapsack-shaped MIP used by the
// solver_scaling experiment.
func SolverProblem(n int) *lp.Problem {
	p := lp.NewProblem(n)
	for i := 0; i < n; i++ {
		p.Binary[i] = true
		p.Objective[i] = -float64(1 + i%7)
	}
	coefs := map[int]float64{}
	for i := 0; i < n; i++ {
		coefs[i] = float64(1 + (i*3)%5)
	}
	p.AddConstraint(coefs, lp.LE, float64(n))
	return p
}

// SolveOnce solves the scaling MIP once, erroring unless optimal.
func SolveOnce(p *lp.Problem) (nodes int, err error) {
	sol := lp.SolveMIP(context.Background(), p, lp.MIPOptions{})
	if sol.Status != lp.StatusOptimal {
		return 0, fmt.Errorf("bench: MIP status %v", sol.Status)
	}
	return sol.Nodes, nil
}

// DesignSpaceCell is one profile's measurement in the design_space_width
// experiment: CoPhy's best total workload cost when the candidate space
// holds only secondary indexes, versus the widened space that also admits
// covering projections (INCLUDE columns) and single-table aggregate views.
type DesignSpaceCell struct {
	BaseObjective float64 // index-only optimum (total workload cost)
	WideObjective float64 // widened-space optimum
	BaseIndexes   int     // structures chosen from the index-only space
	WideIndexes   int     // structures chosen from the widened space
	Projections   int     // ... of which covering projections
	AggViews      int     // ... of which aggregate views
	BaseCands     int     // candidate-space sizes
	WideCands     int
	ScheduleSteps int // greedy materialization order over the wide design
}

// DesignSpaceWidth measures what admitting non-index structures buys: the
// named profile's workload is generated from a derived seed (independent of
// the Env's own workload), then CoPhy solves the index-only and widened
// candidate spaces on fresh engines so neither run warms the other's caches.
// The widened selection is scheduled greedily so every chosen structure has
// an explained place in the materialization order.
func (e *Env) DesignSpaceWidth(profile string, numQ int) (*DesignSpaceCell, error) {
	ctx := context.Background()
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	w, err := p.Generate(e.Store.Schema, e.Seed+5, numQ)
	if err != nil {
		return nil, err
	}
	cell := &DesignSpaceCell{}

	baseEng := e.FreshEngine()
	baseCands := baseEng.GenerateCandidates(w, whatif.DefaultCandidateOptions())
	baseRes, err := cophy.New(baseEng, baseCands).Advise(ctx, w, cophy.DefaultOptions())
	if err != nil {
		return nil, err
	}
	cell.BaseObjective = baseRes.Objective
	cell.BaseIndexes = len(baseRes.Indexes)
	cell.BaseCands = len(baseCands)

	wopts := whatif.DefaultCandidateOptions()
	wopts.IncludeProjections = true
	wopts.IncludeAggViews = true
	wideEng := e.FreshEngine()
	wideCands := wideEng.GenerateCandidates(w, wopts)
	wideRes, err := cophy.New(wideEng, wideCands).Advise(ctx, w, cophy.DefaultOptions())
	if err != nil {
		return nil, err
	}
	cell.WideObjective = wideRes.Objective
	cell.WideIndexes = len(wideRes.Indexes)
	cell.WideCands = len(wideCands)
	for _, ix := range wideRes.Indexes {
		switch ix.Kind {
		case catalog.KindProjection:
			cell.Projections++
		case catalog.KindAggView:
			cell.AggViews++
		}
	}
	if len(wideRes.Indexes) > 0 {
		sched, err := schedule.New(wideEng).Greedy(ctx, w, wideRes.Indexes)
		if err != nil {
			return nil, err
		}
		cell.ScheduleSteps = len(sched.Steps)
	}
	return cell, nil
}
