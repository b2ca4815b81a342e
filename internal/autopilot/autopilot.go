// Package autopilot wraps the COLT online tuner (internal/colt) into an
// ops-grade closed loop — the difference between a demo that raises alerts
// and a tuner you can leave on in production:
//
//   - budgeted materialization: adopted indexes are built in size-bounded
//     page steps between observation epochs (engine.IndexBuild), so builds
//     never starve foreground traffic;
//   - probation and rollback: a freshly materialized index is measured
//     against its what-if promise over a probation window and rolled back
//     (with a cooldown) when reality underperforms the model by a margin;
//   - regret tracking: each epoch the live configuration is compared to
//     the oracle-best design over the same window (exhaustive enumeration
//     of the top candidates, the bench ground-truth machinery), exported
//     as regret percent;
//   - persistence: a crash-safe JSON snapshot (temp file + rename) of the
//     tuner's learning state and the autopilot's builds/probation/cooldown
//     journal, so a restarted process resumes instead of relearning.
package autopilot

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/colt"
	"repro/internal/engine"
	"repro/internal/greedy"
	"repro/internal/workload"
)

// Options configure the supervisor.
type Options struct {
	// Colt configures the wrapped tuner. AutoMaterialize is forced off:
	// the autopilot owns materialization (that is the point).
	Colt colt.Options
	// BuildBudgetPages is the build work performed between epochs, in
	// pages (default 64).
	BuildBudgetPages int64
	// ProbationEpochs is how many epochs a fresh index is measured before
	// the keep/rollback verdict (default 3).
	ProbationEpochs int
	// RollbackMargin is the allowed shortfall versus the what-if promise:
	// rollback when measured benefit < promise x (1 - margin). Default 0.5
	// (must deliver at least half the promise).
	RollbackMargin float64
	// CooldownEpochs suppresses re-adoption of a rolled-back index
	// (default 5).
	CooldownEpochs int
	// RegretCandidates caps the exhaustive oracle's candidate set (default
	// 8, i.e. 256 subsets; 0 disables regret tracking; New refuses more
	// than greedy.MaxExhaustiveCandidates).
	RegretCandidates int
	// StatePath, when non-empty, enables persistence: the state file is
	// rewritten atomically at every epoch boundary and on Save/Close, and
	// New resumes from it when it exists.
	StatePath string
}

// DefaultOptions returns supervisor defaults over the tuner defaults.
func DefaultOptions() Options {
	return Options{
		Colt:             colt.DefaultOptions(),
		BuildBudgetPages: 64,
		ProbationEpochs:  3,
		RollbackMargin:   0.5,
		CooldownEpochs:   5,
		RegretCandidates: 8,
	}
}

func (o Options) withDefaults() Options {
	if o.BuildBudgetPages <= 0 {
		o.BuildBudgetPages = 64
	}
	if o.ProbationEpochs <= 0 {
		o.ProbationEpochs = 3
	}
	if o.RollbackMargin <= 0 || o.RollbackMargin > 1 {
		o.RollbackMargin = 0.5
	}
	if o.CooldownEpochs <= 0 {
		o.CooldownEpochs = 5
	}
	if o.RegretCandidates < 0 {
		o.RegretCandidates = 0
	}
	o.Colt.AutoMaterialize = false
	return o
}

// Decision kinds, in the order a healthy index moves through them.
const (
	KindAdopt         = "adopt"          // alert accepted, build queued
	KindSkipCooldown  = "skip_cooldown"  // alert suppressed by rollback cooldown
	KindBuildProgress = "build_progress" // a budgeted step advanced the front build
	KindMaterialized  = "materialized"   // build complete, index live, probation starts
	KindProbationPass = "probation_pass" // measured benefit honored the promise
	KindRollback      = "rollback"       // measured benefit underperformed; index dropped
	KindDrop          = "drop"           // tuner proposed dropping a live index
)

// Decision is one journaled autopilot action. Seq increases monotonically
// across restarts (it is persisted), so streams can be resumed by cursor.
type Decision struct {
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
func (d Decision) String() string {
	switch d.Kind {
	case KindBuildProgress, KindMaterialized:
		return fmt.Sprintf("epoch %d: %s %s (%d/%d pages)", d.Epoch, d.Kind, d.Index, d.PagesBuilt, d.PagesTotal)
	case KindProbationPass, KindRollback:
		return fmt.Sprintf("epoch %d: %s %s (promised %.1f measured %.1f)", d.Epoch, d.Kind, d.Index, d.Promised, d.Measured)
	default:
		return fmt.Sprintf("epoch %d: %s %s", d.Epoch, d.Kind, d.Index)
	}
}

// RegretPoint is one epoch's gap between the live configuration and the
// oracle-best design over the same observation window.
type RegretPoint struct {
	Epoch      int     `json:"epoch"`
	LiveCost   float64 `json:"live_cost"`
	OracleCost float64 `json:"oracle_cost"`
	RegretPct  float64 `json:"regret_pct"`
}

// BuildStatus reports one queued or in-progress build.
type BuildStatus struct {
	Key        string  `json:"key"`
	PagesBuilt int64   `json:"pages_built"`
	PagesTotal int64   `json:"pages_total"`
	Promised   float64 `json:"promised"`
}

// ProbationStatus reports one index under measurement.
type ProbationStatus struct {
	Key            string  `json:"key"`
	Promised       float64 `json:"promised"`
	EpochsObserved int     `json:"epochs_observed"`
	EpochsRequired int     `json:"epochs_required"`
	MeasuredAvg    float64 `json:"measured_avg"`
}

// Status is a point-in-time snapshot for dashboards and the serve API.
type Status struct {
	Epoch           int               `json:"epoch"`
	Resumed         bool              `json:"resumed"`
	LiveIndexes     []string          `json:"live_indexes"`
	Builds          []BuildStatus     `json:"builds"`
	Probation       []ProbationStatus `json:"probation"`
	Cooldown        map[string]int    `json:"cooldown,omitempty"`
	Decisions       int               `json:"decisions"`
	LastSeq         int               `json:"last_seq"`
	BuildsCompleted int64             `json:"builds_completed"`
	Rollbacks       int64             `json:"rollbacks"`
	BuildPages      int64             `json:"build_pages"`
	RegretPct       float64           `json:"regret_pct"`
	RegretSamples   int               `json:"regret_samples"`
}

type buildState struct {
	build   *engine.IndexBuild
	promise float64
}

type probationState struct {
	key            string
	promise        float64
	epochsObserved int
	measuredTotal  float64
}

// Autopilot is the supervisor. All methods are safe for concurrent use;
// one internal lock serializes observation, epoch tasks, and snapshots.
type Autopilot struct {
	mu    sync.Mutex
	eng   *engine.Engine
	tuner *colt.Tuner
	opts  Options

	builds    []*buildState              // FIFO: first in line gets the budget
	probation map[string]*probationState // key -> measurement
	cooldown  map[string]int             // key -> first epoch re-adoption is allowed

	window        []workload.Query // queries observed in the open epoch
	lastEpoch     int
	pendingAlerts []colt.Alert

	decisions  []Decision
	seq        int
	onDecision func(Decision)
	regret     []RegretPoint
	resumed    bool

	buildsCompleted int64
	rollbacks       int64
	buildPages      int64
}

// New creates a supervisor over a fresh engine. When opts.StatePath names
// an existing state file, the autopilot resumes from it (tuner learning
// state, build queue, probation, cooldowns, decision journal) and initial
// is ignored; otherwise it starts from initial (nil = no indexes).
func New(eng *engine.Engine, initial *catalog.Configuration, opts Options) (*Autopilot, error) {
	if opts.RegretCandidates > greedy.MaxExhaustiveCandidates {
		// The oracle enumerates 2^k subsets every epoch under the lock.
		return nil, fmt.Errorf("autopilot: regret candidates %d: at most %d",
			opts.RegretCandidates, greedy.MaxExhaustiveCandidates)
	}
	opts = opts.withDefaults()
	a := &Autopilot{
		eng:       eng,
		opts:      opts,
		probation: make(map[string]*probationState),
		cooldown:  make(map[string]int),
	}
	if opts.StatePath != "" {
		ok, err := a.load(opts.StatePath)
		if err != nil {
			return nil, err
		}
		if ok {
			a.resumed = true
			return a, nil
		}
	}
	a.tuner = colt.New(eng, initial, opts.Colt)
	a.tuner.OnAlert(func(al colt.Alert) { a.pendingAlerts = append(a.pendingAlerts, al) })
	a.lastEpoch = a.tuner.Epoch()
	return a, nil
}

// OnDecision registers a callback invoked (under the autopilot lock — do
// not call back into the autopilot) for every journaled decision.
func (a *Autopilot) OnDecision(fn func(Decision)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onDecision = fn
}

// Tuner exposes the wrapped tuner for read-side telemetry (alerts,
// reports, candidates). Callers must treat it as read-only.
func (a *Autopilot) Tuner() *colt.Tuner {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tuner
}

// Close persists a final snapshot when persistence is enabled. The
// autopilot holds no costing state to release: each epoch prices on a view
// of its own.
func (a *Autopilot) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.opts.StatePath == "" {
		return nil
	}
	return a.saveLocked()
}

// Save persists the current state (tuner learning state included, even
// mid-epoch) to opts.StatePath. No-op without a StatePath.
func (a *Autopilot) Save() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.opts.StatePath == "" {
		return nil
	}
	return a.saveLocked()
}

// Observe feeds one query through the loop: the tuner observes it, and at
// epoch boundaries the autopilot consumes alerts, advances builds by the
// page budget, measures probation, samples regret, and snapshots state.
// Returns the query's estimated cost under the live configuration.
func (a *Autopilot) Observe(ctx context.Context, q workload.Query) (float64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.window = append(a.window, q)
	cost, err := a.tuner.Observe(ctx, q)
	if err != nil {
		return 0, err
	}
	if epoch := a.tuner.Epoch(); epoch > a.lastEpoch {
		if err := a.endEpochLocked(ctx, epoch); err != nil {
			return 0, err
		}
	}
	return cost, nil
}

// ObserveAll feeds a stream; a cancelled context aborts between queries.
func (a *Autopilot) ObserveAll(ctx context.Context, qs []workload.Query) (float64, error) {
	var total float64
	for _, q := range qs {
		c, err := a.Observe(ctx, q)
		if err != nil {
			return 0, err
		}
		total += c * q.Weight
	}
	return total, nil
}

// Adopt queues a build for an index outside the tuner's alert flow — the
// operator override (and the test hook for induced rollbacks). The promise
// is the per-epoch benefit the index must honor during probation.
func (a *Autopilot) Adopt(ix *catalog.Index, promise float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := ix.Key()
	if a.liveHasLocked(key) || a.buildQueuedLocked(key) {
		return
	}
	a.builds = append(a.builds, &buildState{
		build:   engine.NewIndexBuild(ix, a.eng.Pin().Stats()),
		promise: promise,
	})
	a.record(Decision{Epoch: a.lastEpoch, Kind: KindAdopt, Index: key, Promised: promise, Note: "manual"})
}

// Decisions returns journaled decisions with Seq > afterSeq.
func (a *Autopilot) Decisions(afterSeq int) []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := sort.Search(len(a.decisions), func(i int) bool { return a.decisions[i].Seq > afterSeq })
	return append([]Decision(nil), a.decisions[i:]...)
}

// Regret returns the regret trajectory so far.
func (a *Autopilot) Regret() []RegretPoint {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]RegretPoint(nil), a.regret...)
}

// Current returns (a copy of) the live configuration.
func (a *Autopilot) Current() *catalog.Configuration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tuner.Current()
}

// Status snapshots the supervisor for dashboards.
func (a *Autopilot) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Status{
		Epoch:           a.lastEpoch,
		Resumed:         a.resumed,
		Decisions:       len(a.decisions),
		LastSeq:         a.seq,
		BuildsCompleted: a.buildsCompleted,
		Rollbacks:       a.rollbacks,
		BuildPages:      a.buildPages,
		RegretSamples:   len(a.regret),
	}
	if len(a.regret) > 0 {
		st.RegretPct = a.regret[len(a.regret)-1].RegretPct
	}
	live := a.tuner.Current()
	for _, ix := range live.Indexes {
		st.LiveIndexes = append(st.LiveIndexes, ix.Key())
	}
	sort.Strings(st.LiveIndexes)
	for _, b := range a.builds {
		done, total := b.build.Progress()
		st.Builds = append(st.Builds, BuildStatus{
			Key: b.build.Key(), PagesBuilt: done, PagesTotal: total, Promised: b.promise,
		})
	}
	for _, key := range slices.Sorted(maps.Keys(a.probation)) {
		p := a.probation[key]
		avg := 0.0
		if p.epochsObserved > 0 {
			avg = p.measuredTotal / float64(p.epochsObserved)
		}
		st.Probation = append(st.Probation, ProbationStatus{
			Key: key, Promised: p.promise,
			EpochsObserved: p.epochsObserved, EpochsRequired: a.opts.ProbationEpochs,
			MeasuredAvg: avg,
		})
	}
	if len(a.cooldown) > 0 {
		st.Cooldown = maps.Clone(a.cooldown)
	}
	return st
}

// record journals a decision and fires the callback.
func (a *Autopilot) record(d Decision) {
	a.seq++
	d.Seq = a.seq
	a.decisions = append(a.decisions, d)
	if a.onDecision != nil {
		a.onDecision(d)
	}
}

func (a *Autopilot) liveHasLocked(key string) bool {
	return a.tuner.Current().HasIndex(key)
}

func (a *Autopilot) buildQueuedLocked(key string) bool {
	for _, b := range a.builds {
		if b.build.Key() == key {
			return true
		}
	}
	return false
}

// endEpochLocked runs the between-epochs control tasks, in a fixed order
// so resumed runs replay identically: alerts -> builds -> probation ->
// regret -> snapshot. One generation is pinned for the whole epoch, so
// builds are sized, probation measured and regret sampled (live design and
// oracle alike) against the same statistics and cache.
func (a *Autopilot) endEpochLocked(ctx context.Context, epoch int) error {
	window := a.window
	a.window = nil
	prevEpoch := a.lastEpoch
	a.lastEpoch = epoch

	v := a.eng.Pin()
	a.consumeAlertsLocked(v, prevEpoch)
	a.advanceBuildsLocked(prevEpoch)
	if err := a.measureProbationLocked(ctx, v, prevEpoch, window); err != nil {
		return err
	}
	if err := a.sampleRegretLocked(ctx, v, prevEpoch, window); err != nil {
		return err
	}
	if a.opts.StatePath != "" {
		if err := a.saveLocked(); err != nil {
			return err
		}
	}
	return nil
}

// consumeAlertsLocked turns tuner alerts into drops and queued builds.
func (a *Autopilot) consumeAlertsLocked(v *engine.View, epoch int) {
	alerts := a.pendingAlerts
	a.pendingAlerts = nil
	for _, al := range alerts {
		live := a.tuner.Current()
		// Drops are free: apply immediately — except for indexes still in
		// probation, where the measured verdict (probation_pass/rollback)
		// outranks the model's proposal; a bad index rolls back with a
		// cooldown, which a plain drop would not impose.
		for _, ix := range al.Dropped {
			key := ix.Key()
			if !live.HasIndex(key) {
				continue
			}
			if _, measuring := a.probation[key]; measuring {
				continue
			}
			live = live.WithoutIndex(key)
			a.record(Decision{Epoch: epoch, Kind: KindDrop, Index: key})
		}
		a.tuner.SetCurrent(live)
		for _, ix := range al.Added {
			key := ix.Key()
			if until, held := a.cooldown[key]; held {
				if epoch < until {
					a.record(Decision{
						Epoch: epoch, Kind: KindSkipCooldown, Index: key,
						Note: fmt.Sprintf("cooldown until epoch %d", until),
					})
					continue
				}
				delete(a.cooldown, key)
			}
			if a.liveHasLocked(key) || a.buildQueuedLocked(key) {
				continue
			}
			a.builds = append(a.builds, &buildState{
				build:   engine.NewIndexBuild(ix, v.Stats()),
				promise: al.Scores[key],
			})
			a.record(Decision{Epoch: epoch, Kind: KindAdopt, Index: key, Promised: al.Scores[key]})
		}
	}
}

// advanceBuildsLocked spends the per-epoch page budget on the build queue
// in FIFO order; completed indexes go live and enter probation.
func (a *Autopilot) advanceBuildsLocked(epoch int) {
	budget := a.opts.BuildBudgetPages
	for budget > 0 && len(a.builds) > 0 {
		b := a.builds[0]
		spent := b.build.Advance(budget)
		budget -= spent
		a.buildPages += spent
		done, total := b.build.Progress()
		if !b.build.Done() {
			a.record(Decision{
				Epoch: epoch, Kind: KindBuildProgress, Index: b.build.Key(),
				PagesBuilt: done, PagesTotal: total, Promised: b.promise,
			})
			return // front build still in progress; budget exhausted
		}
		a.builds = a.builds[1:]
		a.buildsCompleted++
		key := b.build.Key()
		live := a.tuner.Current().WithIndex(b.build.Index())
		a.tuner.SetCurrent(live)
		a.probation[key] = &probationState{key: key, promise: b.promise}
		a.record(Decision{
			Epoch: epoch, Kind: KindMaterialized, Index: key,
			PagesBuilt: done, PagesTotal: total, Promised: b.promise,
		})
	}
}

// measureProbationLocked prices the epoch window with and without each
// in-probation index and issues keep/rollback verdicts when probation ends.
func (a *Autopilot) measureProbationLocked(ctx context.Context, v *engine.View, epoch int, window []workload.Query) error {
	if len(a.probation) == 0 {
		return nil
	}
	live := a.tuner.Current()
	for _, key := range slices.Sorted(maps.Keys(a.probation)) {
		p := a.probation[key]
		if !live.HasIndex(key) {
			// Dropped or rolled back out from under us; abandon measurement.
			delete(a.probation, key)
			continue
		}
		var benefit float64
		without := live.WithoutIndex(key)
		for _, q := range window {
			if err := ctx.Err(); err != nil {
				return err
			}
			with, err := v.QueryCost(q, live)
			if err != nil {
				return err
			}
			wo, err := v.QueryCost(q, without)
			if err != nil {
				return err
			}
			benefit += (wo - with) * q.Weight
		}
		p.epochsObserved++
		p.measuredTotal += benefit
		if p.epochsObserved < a.opts.ProbationEpochs {
			continue
		}
		measured := p.measuredTotal / float64(p.epochsObserved)
		delete(a.probation, key)
		if measured < p.promise*(1-a.opts.RollbackMargin) {
			live = live.WithoutIndex(key)
			a.tuner.SetCurrent(live)
			a.cooldown[key] = epoch + a.opts.CooldownEpochs
			a.rollbacks++
			a.record(Decision{
				Epoch: epoch, Kind: KindRollback, Index: key,
				Promised: p.promise, Measured: measured,
				Note: fmt.Sprintf("cooldown %d epochs", a.opts.CooldownEpochs),
			})
		} else {
			a.record(Decision{
				Epoch: epoch, Kind: KindProbationPass, Index: key,
				Promised: p.promise, Measured: measured,
			})
		}
	}
	return nil
}

// sampleRegretLocked compares the live configuration to the oracle-best
// subset of the strongest candidates over the epoch window.
func (a *Autopilot) sampleRegretLocked(ctx context.Context, v *engine.View, epoch int, window []workload.Query) error {
	if a.opts.RegretCandidates == 0 || len(window) == 0 {
		return nil
	}
	live := a.tuner.Current()

	// Oracle candidate pool: everything live plus the strongest learned
	// candidates, deduped by key, capped for tractability (2^n subsets).
	pool := catalog.NewConfiguration()
	for _, ix := range live.Indexes {
		pool = pool.WithIndex(ix)
	}
	cands := a.tuner.Candidates()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].EWMABenefit != cands[j].EWMABenefit {
			return cands[i].EWMABenefit > cands[j].EWMABenefit
		}
		return cands[i].Key < cands[j].Key
	})
	for _, c := range cands {
		if len(pool.Indexes) >= a.opts.RegretCandidates || c.EWMABenefit <= 1e-9 {
			break
		}
		pool = pool.WithIndex(c.Index)
	}

	w := &workload.Workload{Queries: window}
	liveCost, err := v.WorkloadCost(ctx, w, live)
	if err != nil {
		return err
	}
	oracle, err := greedy.Exhaustive(ctx, v, pool.Indexes[:min(len(pool.Indexes), a.opts.RegretCandidates)], w, a.opts.Colt.SpaceBudgetPages)
	if err != nil {
		return err
	}
	oracleCost := math.Min(oracle.Objective, oracle.BaselineCost)
	regret := 0.0
	if oracleCost > 1e-9 && liveCost > oracleCost {
		regret = (liveCost - oracleCost) / oracleCost * 100
	}
	a.regret = append(a.regret, RegretPoint{
		Epoch: epoch, LiveCost: liveCost, OracleCost: oracleCost, RegretPct: regret,
	})
	return nil
}
