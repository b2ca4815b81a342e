package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
)

// Spec selects what one harness run computes: the experiment subset and the
// (size × seed × workload profile) matrix it sweeps.
type Spec struct {
	// Label names the emitted document (BENCH_<label>.json).
	Label string
	// Profile is the suite profile the spec was derived from (smoke, quick,
	// full, or custom).
	Profile string
	// Sizes are dataset size labels (tiny|small|medium).
	Sizes []string
	// Seeds are dataset seeds; workload/stream seeds derive from them.
	Seeds []int64
	// Workloads are workload profile names (internal/workload.Profiles).
	// The first profile runs every selected experiment; additional
	// profiles run only the workload-sensitive ones.
	Workloads []string
	// Experiments are experiment names from Experiments(); empty selects
	// the suite profile's default set.
	Experiments []string
	// Backend is the cost backend the whole suite prices through
	// ("native" default, or "calibrated"); the backend_portability
	// experiment additionally builds its own backends internally.
	Backend string
	// CalibrationFile optionally supplies the calibrated backend's cost
	// constants (JSON); empty uses the built-in SSD profile.
	CalibrationFile string
	// Queries is the workload size per cell.
	Queries int
	// StreamLen and EpochLen shape the COLT convergence experiment.
	StreamLen int
	EpochLen  int
}

// CoreExperiments are the paper's headline suite, run by every profile.
var CoreExperiments = []string{
	"inum_vs_optimizer",
	"cophy_vs_greedy",
	"colt_convergence",
	"interaction_schedule",
	"backend_portability",
	"incremental_readvise",
	"parallel_scaling",
	"colt_autopilot",
	"design_space_width",
}

// ExtraExperiments are the secondary figures and ablations.
var ExtraExperiments = []string{
	"whatif_session",
	"offline_advisor",
	"autopart",
	"size_model",
	"candidate_ablation",
	"solver_scaling",
}

// workloadSensitive marks experiments whose result depends on the workload
// profile. Insensitive experiments (fixed template sets, pure solver
// scaling) run once per (size, seed) on the first profile only.
var workloadSensitive = map[string]bool{
	"inum_vs_optimizer":    true,
	"backend_portability":  true,
	"cophy_vs_greedy":      true,
	"colt_convergence":     true,
	"colt_autopilot":       true,
	"interaction_schedule": true,
	"parallel_scaling":     true,
	"incremental_readvise": true,
	"whatif_session":       true,
	"offline_advisor":      true,
	"candidate_ablation":   true,
}

// ExperimentNames lists every registered experiment in canonical order.
func ExperimentNames() []string {
	return append(append([]string{}, CoreExperiments...), ExtraExperiments...)
}

// SmokeSpec is the CI profile: tiny dataset, one seed, two workload
// profiles, the core suite. It is sized to finish in a few seconds on one
// core.
func SmokeSpec() Spec {
	return Spec{
		Label:     "smoke",
		Profile:   "smoke",
		Sizes:     []string{"tiny"},
		Seeds:     []int64{1},
		Workloads: []string{"uniform", "zipf"},
		Queries:   16,
		StreamLen: 75,
		EpochLen:  25,
	}
}

// QuickSpec adds the small dataset and the drifting profile — a local
// pre-merge check.
func QuickSpec() Spec {
	return Spec{
		Label:       "quick",
		Profile:     "quick",
		Sizes:       []string{"tiny", "small"},
		Seeds:       []int64{1},
		Workloads:   []string{"uniform", "zipf", "drifting"},
		Experiments: append(append([]string{}, CoreExperiments...), "whatif_session", "offline_advisor"),
		Queries:     24,
		StreamLen:   150,
		EpochLen:    25,
	}
}

// FullSpec is the complete matrix: every experiment over every workload
// profile, two seeds.
func FullSpec() Spec {
	return Spec{
		Label:       "full",
		Profile:     "full",
		Sizes:       []string{"tiny", "small"},
		Seeds:       []int64{1, 2},
		Workloads:   []string{"uniform", "zipf", "template_heavy", "drifting", "update_heavy"},
		Experiments: ExperimentNames(),
		Queries:     24,
		StreamLen:   300,
		EpochLen:    25,
	}
}

// SpecForProfile resolves a suite profile name.
func SpecForProfile(name string) (Spec, error) {
	switch name {
	case "smoke":
		return SmokeSpec(), nil
	case "quick":
		return QuickSpec(), nil
	case "full":
		return FullSpec(), nil
	}
	return Spec{}, fmt.Errorf("bench: unknown suite profile %q (smoke|quick|full)", name)
}

// normalize fills spec defaults and validates the selections.
func (s *Spec) normalize() error {
	if s.Label == "" {
		s.Label = s.Profile
	}
	if s.Label == "" {
		s.Label = "custom"
	}
	if len(s.Experiments) == 0 {
		s.Experiments = append([]string{}, CoreExperiments...)
	}
	if s.Queries <= 0 {
		s.Queries = 16
	}
	if s.StreamLen <= 0 {
		s.StreamLen = 75
	}
	if s.EpochLen <= 0 {
		s.EpochLen = 25
	}
	if len(s.Sizes) == 0 {
		s.Sizes = []string{"tiny"}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if len(s.Workloads) == 0 {
		s.Workloads = []string{"uniform"}
	}
	if s.Backend == "" {
		s.Backend = engine.BackendNative
	}
	if s.Backend != engine.BackendNative && s.Backend != engine.BackendCalibrated {
		return fmt.Errorf("bench: backend %q not runnable as a suite backend (native|calibrated)", s.Backend)
	}
	for _, name := range s.Experiments {
		if runners[name] == nil {
			return fmt.Errorf("bench: unknown experiment %q (have %v)", name, ExperimentNames())
		}
	}
	return nil
}

// backendSpec resolves the spec's backend selection into the engine form,
// loading the calibration file when given.
func (s *Spec) backendSpec() (engine.BackendSpec, error) {
	out := engine.BackendSpec{Kind: s.Backend}
	if s.CalibrationFile != "" {
		cal, err := engine.LoadCalibration(s.CalibrationFile)
		if err != nil {
			return engine.BackendSpec{}, err
		}
		out.Calibration = cal
	}
	return out, out.Validate()
}

// runner computes one experiment's metrics inside a prepared Env.
type runner func(e *Env, spec Spec, x *Experiment) error

var runners = map[string]runner{
	"inum_vs_optimizer":    runINUMVsOptimizer,
	"backend_portability":  runBackendPortability,
	"incremental_readvise": runIncrementalReadvise,
	"cophy_vs_greedy":      runCoPhyVsGreedy,
	"colt_convergence":     runCOLTConvergence,
	"colt_autopilot":       runColtAutopilot,
	"interaction_schedule": runInteractionSchedule,
	"parallel_scaling":     runParallelScaling,
	"whatif_session":       runWhatIfSession,
	"offline_advisor":      runOfflineAdvisor,
	"autopart":             runAutoPart,
	"size_model":           runSizeModel,
	"candidate_ablation":   runCandidateAblation,
	"solver_scaling":       runSolverScaling,
	"design_space_width":   runDesignSpaceWidth,
}

// Run executes the spec's experiment matrix and returns the answer
// document. logf (optional) receives progress lines.
func Run(spec Spec, logf func(format string, args ...any)) (*Result, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	espec, err := spec.backendSpec()
	if err != nil {
		return nil, err
	}
	res := &Result{
		SchemaVersion: SchemaVersion,
		Label:         spec.Label,
		Profile:       spec.Profile,
		Backend:       spec.Backend,
	}
	for _, size := range spec.Sizes {
		for _, seed := range spec.Seeds {
			for wi, profile := range spec.Workloads {
				// One Env per cell, dropped when the cell completes: the
				// harness's peak memory is a single dataset + cache, not the
				// whole matrix.
				env, err := NewEnv(size, seed, profile, spec.Queries, espec)
				if err != nil {
					return nil, fmt.Errorf("bench: env %s/%d/%s: %w", size, seed, profile, err)
				}
				for _, name := range spec.Experiments {
					if wi > 0 && !workloadSensitive[name] {
						continue
					}
					start := time.Now()
					x := Experiment{
						Name:     name,
						Size:     size,
						Workload: profile,
						Seed:     seed,
						Quality:  map[string]float64{},
						Counts:   map[string]int64{},
					}
					if err := runners[name](env, spec, &x); err != nil {
						return nil, fmt.Errorf("bench: %s [%s/%s/seed %d]: %w", name, size, profile, seed, err)
					}
					res.Experiments = append(res.Experiments, x)
					logf("bench: %-22s %s/%s seed=%d  (%.2fs)",
						name, size, profile, seed, time.Since(start).Seconds())
				}
			}
		}
	}
	sortExperiments(res.Experiments)
	if err := res.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// sortExperiments orders cells canonically so document layout never depends
// on map or goroutine scheduling.
func sortExperiments(xs []Experiment) {
	order := map[string]int{}
	for i, name := range ExperimentNames() {
		order[name] = i
	}
	sort.SliceStable(xs, func(i, j int) bool {
		a, b := xs[i], xs[j]
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return order[a.Name] < order[b.Name]
	})
}

// --- experiment runners ----------------------------------------------------

// runINUMVsOptimizer records the latency-independent form of the E8
// speedup: cached costings served per full optimizer call over a whole
// advise pipeline. The wall-clock form is benchmark/'s inum.speedup_x.
func runINUMVsOptimizer(e *Env, spec Spec, x *Experiment) error {
	ratio, err := e.PipelineCallsAvoided()
	if err != nil {
		return err
	}
	x.Quality["costings_per_optimizer_call"] = ratio
	x.Counts["queries"] = int64(len(e.W.Queries))
	// A constant the committed baselines carry for this experiment; it
	// stays so every baseline cell remains byte-identical.
	x.Counts["configs"] = 16
	x.Counts["candidates"] = int64(len(e.Cands))
	return nil
}

// runBackendPortability measures the paper's portability claim: the same
// greedy selection run under the native and calibrated backends should
// choose (nearly) the same design even though the two models disagree on
// absolute costs, and a recorded native trace must replay those costs
// exactly with no live engine behind it.
func runBackendPortability(e *Env, spec Spec, x *Experiment) error {
	// Unlimited budget: each backend keeps every index it finds beneficial.
	// The claim under test is that both economies recognize the same
	// beneficial structures — tight budgets instead test knapsack
	// tie-breaking, where a 3.6x random-page-cost swing legitimately ranks
	// marginal indexes differently.
	const budget = int64(0)
	res, err := e.Portability(budget)
	if err != nil {
		return err
	}
	x.Quality["design_jaccard_pct"] = res.JaccardPct
	x.Quality["cross_penalty_pct"] = res.CrossPenaltyPct
	x.Quality["native_improvement_pct"] = res.NativeImprovement
	x.Quality["calibrated_improvement_pct"] = res.CalibImprovement
	x.Quality["replay_max_abs_diff"] = res.ReplayMaxAbsDiff
	x.Counts["native_indexes"] = int64(len(res.NativeKeys))
	x.Counts["calibrated_indexes"] = int64(len(res.CalibratedKeys))
	x.Counts["trace_calls"] = int64(res.TraceCalls)
	// Designs "agree" when each backend's choice is within 5% of the other
	// backend's own optimum under that backend's model — functional
	// interchangeability, the form of the paper's portability claim.
	x.Counts["designs_agree"] = 0
	if res.CrossPenaltyPct <= 5.0 {
		x.Counts["designs_agree"] = 1
	}
	x.Counts["replay_exact"] = 0
	if res.ReplayAgrees {
		x.Counts["replay_exact"] = 1
	}
	return nil
}

// runIncrementalReadvise checks the interactive pillar at scale: exact
// agreement between the warm and cold answers to a follow-up question, and
// the session evaluate delta split.
func runIncrementalReadvise(e *Env, spec Spec, x *Experiment) error {
	r, err := e.IncrementalReadvise()
	if err != nil {
		return err
	}
	x.Counts["designs_agree"] = bool01(r.DesignsAgree)
	x.Counts["reports_agree"] = bool01(r.ReportsAgree)
	x.Counts["warm_indexes"] = int64(r.WarmIndexes)
	x.Counts["cold_indexes"] = int64(r.ColdIndexes)
	x.Counts["report_recosted_queries"] = int64(r.RecostedQueries)
	x.Counts["report_reused_queries"] = int64(r.ReusedQueries)
	x.Counts["candidates_reused"] = bool01(r.CandidatesReused)
	x.Counts["solver_warm_started"] = bool01(r.SolverWarmStarted)
	x.Counts["eval_recosted_queries"] = int64(r.EvalRecosted)
	x.Counts["eval_reused_queries"] = int64(r.EvalReused)
	x.Counts["eval_delta_exact"] = bool01(r.EvalExact)
	return nil
}

// bool01 renders a deterministic boolean as a count cell.
func bool01(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// runCoPhyVsGreedy sweeps storage budgets comparing CoPhy's cost and proven
// gap against the greedy baseline (E7), with exhaustive ground truth when
// the candidate set is small enough to enumerate.
func runCoPhyVsGreedy(e *Env, spec Spec, x *Experiment) error {
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
		g, err := e.Greedy(budget)
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
		if frac.label == "budget50" && len(e.Cands) <= 14 {
			ex, err := e.Exhaustive(budget)
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

// runCOLTConvergence streams profile-drawn queries through the online tuner
// and records the adaptive savings against the static no-index baseline
// (E6).
func runCOLTConvergence(e *Env, spec Spec, x *Experiment) error {
	out, err := e.COLTStream(spec.StreamLen, spec.EpochLen)
	if err != nil {
		return err
	}
	x.Quality["savings_pct"] = out.SavingsPct
	x.Counts["queries"] = int64(out.Queries)
	x.Counts["epochs"] = int64(out.Epochs)
	x.Counts["config_changes"] = int64(out.ConfigChanges)
	x.Counts["alerts"] = int64(out.Alerts)
	return nil
}

// runColtAutopilot streams the same profile-drawn queries through the
// autopilot's closed loop (budgeted builds, probation/rollback, oracle
// regret) and records regret-over-time as the trajectory metric: the gap
// between the live configuration and the exhaustive oracle-best design
// should shrink toward zero as adopted indexes materialize.
func runColtAutopilot(e *Env, spec Spec, x *Experiment) error {
	out, err := e.AutopilotStream(spec.StreamLen, spec.EpochLen)
	if err != nil {
		return err
	}
	x.Quality["savings_pct"] = out.SavingsPct
	x.Quality["first_regret_pct"] = out.FirstRegretPct
	x.Quality["final_regret_pct"] = out.FinalRegretPct
	x.Quality["min_regret_pct"] = out.MinRegretPct
	x.Counts["queries"] = int64(out.Queries)
	x.Counts["epochs"] = int64(out.Epochs)
	x.Counts["decisions"] = int64(out.Decisions)
	x.Counts["builds"] = out.Builds
	x.Counts["build_pages"] = out.BuildPages
	x.Counts["rollbacks"] = out.Rollbacks
	x.Counts["regret_samples"] = int64(out.RegretSamples)
	x.Counts["regret_improved"] = bool01(out.FinalRegretPct <= out.FirstRegretPct)
	x.Counts["final_under_5pct"] = bool01(out.FinalRegretPct <= 5.0)
	return nil
}

// runInteractionSchedule analyzes the advised set's interaction graph (E2)
// and compares interaction-aware against oblivious materialization order
// (E9).
func runInteractionSchedule(e *Env, spec Spec, x *Experiment) error {
	advised, err := e.Advised()
	if err != nil {
		return err
	}
	x.Counts["advised_indexes"] = int64(len(advised))
	if len(advised) < 2 {
		return nil
	}
	g, err := e.InteractionGraph(4)
	if err != nil {
		return err
	}
	var mass float64
	for _, edge := range g.Edges {
		mass += edge.Doi
	}
	x.Counts["edges"] = int64(len(g.Edges))
	x.Quality["total_doi"] = mass
	aware, obliv, err := e.Schedules()
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

// runParallelScaling runs the costing hot path — the configuration sweep
// and the warm re-advise — at fixed worker counts. Every *_exact count must
// be 1 and every *_max_abs_diff quality exactly 0 on any machine:
// parallelism changes latency, never results.
func runParallelScaling(e *Env, spec Spec, x *Experiment) error {
	r, err := e.ParallelScaling()
	if err != nil {
		return err
	}
	x.Counts["configs"] = int64(r.Configs)
	x.Counts["queries"] = int64(len(e.W.Queries))
	for _, c := range r.Cells {
		key := fmt.Sprintf("w%02d", c.Workers)
		x.Quality[key+"_sweep_max_abs_diff"] = c.SweepMaxDiff
		x.Counts[key+"_sweep_exact"] = bool01(c.SweepExact)
		x.Counts[key+"_readvise_exact"] = bool01(c.ReadviseExact)
	}
	return nil
}

// runWhatIfSession evaluates Scenario 1's demo design (E4).
func runWhatIfSession(e *Env, spec Spec, x *Experiment) error {
	cfg, err := e.WhatIfDemoConfig()
	if err != nil {
		return err
	}
	benefit, err := e.WhatIfBenefit(cfg)
	if err != nil {
		return err
	}
	x.Quality["benefit_pct"] = benefit
	x.Counts["indexes"] = int64(len(cfg.Indexes))
	return nil
}

// runOfflineAdvisor runs the full Scenario 2 pipeline (E5).
func runOfflineAdvisor(e *Env, spec Spec, x *Experiment) error {
	improvement, err := e.OfflineAdvise()
	if err != nil {
		return err
	}
	x.Quality["improvement_pct"] = improvement
	x.Counts["queries"] = int64(len(e.W.Queries))
	return nil
}

// runAutoPart runs partition-only advice over the photometric workload
// (E3/E11).
func runAutoPart(e *Env, spec Spec, x *Experiment) error {
	w, err := e.AutoPartWorkload()
	if err != nil {
		return err
	}
	improvement, err := e.AutoPartImprovement(w)
	if err != nil {
		return err
	}
	x.Quality["improvement_pct"] = improvement
	x.Counts["queries"] = int64(len(w.Queries))
	return nil
}

// runSizeModel records the size-zero what-if distortion factor (E12).
func runSizeModel(e *Env, spec Spec, x *Experiment) error {
	distortion, err := e.SizeModelDistortion()
	if err != nil {
		return err
	}
	x.Quality["honest_vs_zero_x"] = distortion
	x.Counts["queries"] = 1
	return nil
}

// runCandidateAblation sweeps the per-table candidate cap (the enumeration
// width ablation).
func runCandidateAblation(e *Env, spec Spec, x *Experiment) error {
	for _, cap := range []int{2, 6, 12} {
		improvement, n, err := e.AblationImprovement(cap)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("cap%d", cap)
		x.Quality[label+"_improvement_pct"] = improvement
		x.Counts[label+"_candidates"] = int64(n)
	}
	return nil
}

// runSolverScaling counts the branch-and-bound nodes the solver needs on
// growing binary programs.
func runSolverScaling(e *Env, spec Spec, x *Experiment) error {
	for _, n := range []int{10, 20, 40} {
		nodes, err := SolveOnce(SolverProblem(n))
		if err != nil {
			return err
		}
		x.Counts[fmt.Sprintf("n%d_nodes", n)] = int64(nodes)
	}
	return nil
}

// runDesignSpaceWidth compares index-only vs widened (projections +
// aggregate views) candidate spaces over the aggregate-bearing workload
// profiles. It builds its own workloads from the Env's dataset, so it is
// workload-insensitive and runs once per (size, seed).
func runDesignSpaceWidth(e *Env, spec Spec, x *Experiment) error {
	for _, profile := range []string{"template_heavy", "update_heavy"} {
		cell, err := e.DesignSpaceWidth(profile, spec.Queries)
		if err != nil {
			return fmt.Errorf("%s: %w", profile, err)
		}
		x.Quality[profile+"_base_cost"] = cell.BaseObjective
		x.Quality[profile+"_wide_cost"] = cell.WideObjective
		if cell.BaseObjective > 0 {
			x.Quality[profile+"_wide_savings_pct"] =
				(cell.BaseObjective - cell.WideObjective) / cell.BaseObjective * 100
		}
		x.Counts[profile+"_base_indexes"] = int64(cell.BaseIndexes)
		x.Counts[profile+"_wide_structures"] = int64(cell.WideIndexes)
		x.Counts[profile+"_projections_chosen"] = int64(cell.Projections)
		x.Counts[profile+"_aggviews_chosen"] = int64(cell.AggViews)
		x.Counts[profile+"_base_candidates"] = int64(cell.BaseCands)
		x.Counts[profile+"_wide_candidates"] = int64(cell.WideCands)
		x.Counts[profile+"_schedule_steps"] = int64(cell.ScheduleSteps)
		x.Counts[profile+"_strict_improvement"] = bool01(cell.WideObjective < cell.BaseObjective)
	}
	return nil
}
