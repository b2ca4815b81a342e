package bench

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/designer"
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
	// Experiments are experiment names from ExperimentNames(); empty selects
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

// experiment is one registered experiment. Core experiments are the paper's
// headline suite, run by every profile; the others are secondary figures and
// ablations. A perWorkload experiment depends on the workload profile and
// runs on every profile of a (size, seed); the rest (fixed template sets,
// pure solver scaling) run on the first profile only.
type experiment struct {
	name        string
	core        bool
	perWorkload bool
	run         func(e *Env, spec Spec, x *Experiment) error
}

// experiments registers every experiment in canonical order: the order of
// ExperimentNames, of the CLI help and of a result document's cells.
var experiments = []experiment{
	{"inum_vs_optimizer", true, true, runINUMVsOptimizer},
	{"cophy_vs_greedy", true, true, runCoPhyVsGreedy},
	{"colt_convergence", true, true, runCOLTConvergence},
	{"interaction_schedule", true, true, runInteractionSchedule},
	{"backend_portability", true, true, runBackendPortability},
	{"incremental_readvise", true, true, runIncrementalReadvise},
	{"parallel_scaling", true, true, runParallelScaling},
	{"colt_autopilot", true, true, runColtAutopilot},
	{"design_space_width", true, false, runDesignSpaceWidth},
	{"whatif_session", false, true, runWhatIfSession},
	{"offline_advisor", false, true, runOfflineAdvisor},
	{"autopart", false, false, runAutoPart},
	{"size_model", false, false, runSizeModel},
	{"candidate_ablation", false, true, runCandidateAblation},
	{"solver_scaling", false, false, runSolverScaling},
}

// CoreExperiments are the paper's headline suite, run by every profile.
var CoreExperiments = experimentNames(true)

// ExperimentNames lists every registered experiment in canonical order.
func ExperimentNames() []string { return experimentNames(false) }

// experimentNames lists the registered experiments in canonical order, only
// the core ones when coreOnly is set.
func experimentNames(coreOnly bool) []string {
	var out []string
	for _, x := range experiments {
		if x.core || !coreOnly {
			out = append(out, x.name)
		}
	}
	return out
}

// experimentIndex is the canonical position of the experiment named name,
// or -1 when none is registered under it.
func experimentIndex(name string) int {
	return slices.IndexFunc(experiments, func(x experiment) bool { return x.name == name })
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
		s.Backend = designer.BackendNative
	}
	if s.Backend != designer.BackendNative && s.Backend != designer.BackendCalibrated {
		return fmt.Errorf("bench: backend %q not runnable as a suite backend (native|calibrated)", s.Backend)
	}
	if s.CalibrationFile != "" && s.Backend != designer.BackendCalibrated {
		return fmt.Errorf("bench: calibration file given but backend is %q (want %q)", s.Backend, designer.BackendCalibrated)
	}
	for _, name := range s.Experiments {
		if experimentIndex(name) < 0 {
			return fmt.Errorf("bench: unknown experiment %q (have %v)", name, ExperimentNames())
		}
	}
	return nil
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
	backend := designer.BackendSpec{Kind: spec.Backend, CalibrationFile: spec.CalibrationFile}
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
				env, err := NewEnv(size, seed, profile, spec.Queries, backend)
				if err != nil {
					return nil, fmt.Errorf("bench: env %s/%d/%s: %w", size, seed, profile, err)
				}
				for _, name := range spec.Experiments {
					exp := experiments[experimentIndex(name)]
					if wi > 0 && !exp.perWorkload {
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
					if err := exp.run(env, spec, &x); err != nil {
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
	slices.SortStableFunc(xs, func(a, b Experiment) int {
		return cmp.Or(strings.Compare(a.Size, b.Size), cmp.Compare(a.Seed, b.Seed),
			strings.Compare(a.Workload, b.Workload), cmp.Compare(experimentIndex(a.Name), experimentIndex(b.Name)))
	})
}
