package designer

import (
	"context"
	"fmt"

	"repro/internal/autopilot"
	"repro/internal/catalog"
	"repro/internal/engine"
)

// AutopilotOptions configure the closed-loop supervisor layered over the
// online tuner: budgeted background materialization, probation with
// automatic rollback, oracle-regret tracking, and crash-safe persistence.
type AutopilotOptions struct {
	// BuildBudgetPages is the materialization work performed between
	// observation epochs, in pages (default 64).
	BuildBudgetPages int64
	// ProbationEpochs is how many epochs a freshly materialized index is
	// measured before the keep/rollback verdict (default 3).
	ProbationEpochs int
	// RollbackMargin is the allowed shortfall versus the what-if promise:
	// rollback when measured benefit < promise x (1 - margin). Default
	// 0.5.
	RollbackMargin float64
	// CooldownEpochs suppresses re-adoption of a rolled-back index
	// (default 5).
	CooldownEpochs int
	// RegretCandidates caps the exhaustive oracle's candidate set (default
	// 8; 0 disables regret tracking). The oracle enumerates 2^k subsets an
	// epoch, so NewAutopilot refuses more than 14.
	RegretCandidates int
	// StatePath enables persistence: the supervisor snapshots its full
	// state there at every epoch boundary (and on Save/Close), and resumes
	// from the file when it already exists.
	StatePath string
}

// DefaultAutopilotOptions returns the supervisor defaults.
func DefaultAutopilotOptions() AutopilotOptions {
	o := autopilot.DefaultOptions()
	return AutopilotOptions{
		BuildBudgetPages: o.BuildBudgetPages,
		ProbationEpochs:  o.ProbationEpochs,
		RollbackMargin:   o.RollbackMargin,
		CooldownEpochs:   o.CooldownEpochs,
		RegretCandidates: o.RegretCandidates,
	}
}

func (o AutopilotOptions) internal(topts TunerOptions) autopilot.Options {
	return autopilot.Options{
		Colt:             topts.internal(),
		BuildBudgetPages: o.BuildBudgetPages,
		ProbationEpochs:  o.ProbationEpochs,
		RollbackMargin:   o.RollbackMargin,
		CooldownEpochs:   o.CooldownEpochs,
		RegretCandidates: o.RegretCandidates,
		StatePath:        o.StatePath,
	}
}

// AutopilotDecision is one journaled supervisor action. Kind is one of
// adopt, skip_cooldown, build_progress, materialized, probation_pass,
// rollback, drop. Seq increases monotonically across restarts.
type AutopilotDecision struct {
	Seq        int     `json:"seq"`
	Epoch      int     `json:"epoch"`
	Kind       string  `json:"kind"`
	Index      string  `json:"index,omitempty"`
	PagesBuilt int64   `json:"pages_built,omitempty"`
	PagesTotal int64   `json:"pages_total,omitempty"`
	Promised   float64 `json:"promised,omitempty"`
	Measured   float64 `json:"measured,omitempty"`
	Note       string  `json:"note,omitempty"`
}

// String renders the decision for logs.
func (d AutopilotDecision) String() string { return autopilot.Decision(d).String() }

// AutopilotRegretPoint is one epoch's measured gap between the live
// configuration and the oracle-best design over the same window.
type AutopilotRegretPoint struct {
	Epoch      int     `json:"epoch"`
	LiveCost   float64 `json:"live_cost"`
	OracleCost float64 `json:"oracle_cost"`
	RegretPct  float64 `json:"regret_pct"`
}

// AutopilotBuild reports one queued or in-progress background build.
type AutopilotBuild struct {
	Key        string  `json:"key"`
	PagesBuilt int64   `json:"pages_built"`
	PagesTotal int64   `json:"pages_total"`
	Promised   float64 `json:"promised"`
}

// AutopilotProbation reports one index under post-build measurement.
type AutopilotProbation struct {
	Key            string  `json:"key"`
	Promised       float64 `json:"promised"`
	EpochsObserved int     `json:"epochs_observed"`
	EpochsRequired int     `json:"epochs_required"`
	MeasuredAvg    float64 `json:"measured_avg"`
}

// AutopilotStatus is a point-in-time snapshot of the supervisor.
type AutopilotStatus struct {
	Epoch           int                  `json:"epoch"`
	Resumed         bool                 `json:"resumed"`
	LiveIndexes     []string             `json:"live_indexes"`
	Builds          []AutopilotBuild     `json:"builds"`
	Probation       []AutopilotProbation `json:"probation"`
	Cooldown        map[string]int       `json:"cooldown,omitempty"`
	Decisions       int                  `json:"decisions"`
	LastSeq         int                  `json:"last_seq"`
	BuildsCompleted int64                `json:"builds_completed"`
	Rollbacks       int64                `json:"rollbacks"`
	BuildPages      int64                `json:"build_pages"`
	RegretPct       float64              `json:"regret_pct"`
	RegretSamples   int                  `json:"regret_samples"`
}

// Autopilot is the ops-grade continuous tuning loop (ROADMAP item 4): the
// COLT tuner proposes, the supervisor materializes under a page budget,
// measures each new index against its promise, rolls back underperformers,
// tracks regret against the oracle-best design, and persists its state so
// a restart resumes instead of relearning. Safe for concurrent use.
type Autopilot struct {
	a   *autopilot.Autopilot
	eng *engine.Engine
}

// NewAutopilot creates the supervisor over the designer's engine, seeded
// with the currently materialized configuration. When opts.StatePath names
// an existing snapshot, the autopilot resumes from it instead.
func (d *Designer) NewAutopilot(topts TunerOptions, opts AutopilotOptions) (*Autopilot, error) {
	a, err := autopilot.New(d.eng, d.eng.Pin().Base(), opts.internal(topts))
	if err != nil {
		return nil, err
	}
	return &Autopilot{a: a, eng: d.eng}, nil
}

// Observe feeds one query through the loop and returns its estimated cost
// under the live configuration. Epoch boundaries trigger the control
// tasks: alert intake, budgeted build steps, probation measurement, regret
// sampling, and (when configured) a state snapshot.
func (a *Autopilot) Observe(ctx context.Context, q Query) (float64, error) {
	if err := q.valid(); err != nil {
		return 0, err
	}
	return a.a.Observe(ctx, q.internal())
}

// ObserveAll feeds a whole stream; a cancelled context aborts between
// queries.
func (a *Autopilot) ObserveAll(ctx context.Context, qs []Query) (float64, error) {
	stream, err := queriesToInternal(qs)
	if err != nil {
		return 0, err
	}
	return a.a.ObserveAll(ctx, stream)
}

// OnDecision registers a callback invoked for every journaled decision.
// The callback runs under the supervisor lock: keep it light and do not
// call back into the autopilot from it.
func (a *Autopilot) OnDecision(fn func(AutopilotDecision)) {
	a.a.OnDecision(func(d autopilot.Decision) { fn(AutopilotDecision(d)) })
}

// Adopt queues a background build outside the tuner's alert flow — the
// operator override. The promise is the per-epoch benefit the index must
// honor during probation. A spec the what-if constructor refuses, or
// another kind than a secondary index, is refused.
func (a *Autopilot) Adopt(ix Index, promise float64) error {
	six, err := ix.structure(a.eng.Pin().Session())
	if err != nil {
		return err
	}
	if six.Kind != catalog.KindSecondary {
		return fmt.Errorf("designer: adopt %s: the autopilot builds secondary indexes only", six.Key())
	}
	a.a.Adopt(six, promise)
	return nil
}

// Status snapshots the supervisor.
func (a *Autopilot) Status() AutopilotStatus {
	st := a.a.Status()
	out := AutopilotStatus{
		Epoch:           st.Epoch,
		Resumed:         st.Resumed,
		LiveIndexes:     st.LiveIndexes,
		Cooldown:        st.Cooldown,
		Decisions:       st.Decisions,
		LastSeq:         st.LastSeq,
		BuildsCompleted: st.BuildsCompleted,
		Rollbacks:       st.Rollbacks,
		BuildPages:      st.BuildPages,
		RegretPct:       st.RegretPct,
		RegretSamples:   st.RegretSamples,
	}
	for _, b := range st.Builds {
		out.Builds = append(out.Builds, AutopilotBuild(b))
	}
	for _, p := range st.Probation {
		out.Probation = append(out.Probation, AutopilotProbation(p))
	}
	return out
}

// Decisions returns journaled decisions with Seq > afterSeq (0 = all).
func (a *Autopilot) Decisions(afterSeq int) []AutopilotDecision {
	ds := a.a.Decisions(afterSeq)
	out := make([]AutopilotDecision, len(ds))
	for i, d := range ds {
		out[i] = AutopilotDecision(d)
	}
	return out
}

// Regret returns the regret trajectory sampled so far.
func (a *Autopilot) Regret() []AutopilotRegretPoint {
	rs := a.a.Regret()
	out := make([]AutopilotRegretPoint, len(rs))
	for i, r := range rs {
		out[i] = AutopilotRegretPoint(r)
	}
	return out
}

// Current returns the live configuration's index set.
func (a *Autopilot) Current() []Index {
	return indexesFromInternal(a.a.Current().Indexes)
}

// Alerts returns the wrapped tuner's alerts.
func (a *Autopilot) Alerts() []TunerAlert { return alertsFromInternal(a.a.Tuner().Alerts()) }

// Reports returns the wrapped tuner's per-epoch summaries.
func (a *Autopilot) Reports() []TunerReport { return reportsFromInternal(a.a.Tuner().Reports()) }

// Save persists the current state to the configured StatePath (no-op
// without one). Call it on shutdown for a mid-epoch-exact snapshot;
// epoch-boundary snapshots happen automatically.
func (a *Autopilot) Save() error { return a.a.Save() }

// Close snapshots the state when persistence is on. There is no costing
// state to release: each epoch prices on a pinned view of its own. The
// autopilot must not be used after.
func (a *Autopilot) Close() error { return a.a.Close() }
