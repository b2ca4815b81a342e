package designer

import (
	"context"
	"errors"
	"slices"

	"repro/internal/autopart"
	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/interaction"
	"repro/internal/schedule"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// This file implements the incremental re-advise pipeline — the interactive
// pillar at scale. A design session keeps its last answer's derivation
// state; ReAdvise reuses as much of it as the input delta allows:
//
//   - identical question (workload, options, generation): the cached advice
//     is returned outright — nothing is recosted, nothing is re-solved;
//   - same workload, different options (budget, node budget, pins,
//     partitions, ...) over the same candidates: the session's CoPhy
//     advisor is asked again, and it answers from the priced program it
//     kept — no prepare, no baseline or atom pricing, only the BIP's rows
//     and the branch-and-bound, seeded with the previous advice's basis as
//     its initial incumbent — and the benefit report is delta-costed: only
//     queries whose tables' design slices changed between the two advised
//     configurations are re-priced;
//   - same workload, other candidate options or seeds: candidates are
//     enumerated and priced afresh, the solver is still warm-started and
//     the report delta-costed;
//   - anything else (workload edits, a new engine generation after
//     Materialize/Analyze): the pipeline runs cold and the state is
//     refreshed.
//
// Warm answers are exact: every reused number is the number the cold
// pipeline would recompute (differential-tested at the engine layer and by
// TestReAdviseReusesProgramExactly), and solver warm starts only prune the
// search tree, never change the optimum.

// ReadviseStats reports how much of a re-advise was served from prior work.
type ReadviseStats struct {
	// Warm is true when any prior state was reused.
	Warm bool
	// Cached is true on the fastest path: the question was identical and
	// the previous advice was returned verbatim.
	Cached bool
	// CandidatesReused is true when candidate enumeration was skipped.
	CandidatesReused bool
	// SolverWarmStarted is true when CoPhy accepted the previous basis as
	// its initial incumbent.
	SolverWarmStarted bool
	// RecostedQueries and ReusedQueries split the benefit report's queries
	// into re-priced and copied-from-state.
	RecostedQueries int
	ReusedQueries   int
}

// adviceState is the cached derivation state of a session's last answer:
// the options it answered (seeds cloned), the CoPhy advisor over its
// candidates, which keeps the program it priced, and the engine's own delta
// state, which knows the generation and the workload it was computed for.
type adviceState struct {
	opts      AdviceOptions
	advice    *Advice
	basisKeys []string
	adv       *cophy.Advisor
	evalState *engine.EvalState
}

// sameCandidates reports whether two questions enumerate the same
// candidates: the same candidate options and the same seeds, by key in
// order.
func sameCandidates(a, b AdviceOptions) bool {
	return a.CandidateOptions == b.CandidateOptions &&
		slices.EqualFunc(a.SeedIndexes, b.SeedIndexes, func(x, y Index) bool { return x.Key() == y.Key() })
}

// sameQuestion reports whether two questions are one: every option equal.
func sameQuestion(a, b AdviceOptions) bool {
	return a.StorageBudgetPages == b.StorageBudgetPages && a.NodeBudget == b.NodeBudget &&
		a.Partitions == b.Partitions && a.Interactions == b.Interactions &&
		a.PinIndexes == b.PinIndexes && sameCandidates(a, b)
}

// Advise runs the full automatic design pipeline for the session's pinned
// generation — Scenario 2 scoped to one interactive session — and keeps
// its derivation state so a subsequent ReAdvise starts warm. Unlike
// session evaluation, advising always searches from the base design: the
// session's hypothetical indexes steer evaluation, not candidate selection
// (seed candidates via AdviceOptions.SeedIndexes to inject them).
func (s *DesignSession) Advise(ctx context.Context, w *Workload, opts AdviceOptions) (*Advice, error) {
	advice, st, _, err := s.d.advisePipeline(ctx, s.view, w.internal(), opts, nil)
	if err != nil {
		return nil, err
	}
	s.last = st
	return advice, nil
}

// ReAdvise answers the session's next design question, reusing the
// previous answer's derivation where the inputs allow (see the file
// comment for the reuse ladder). The result is exactly what Advise would
// return for the same inputs; the stats report what was reused.
func (s *DesignSession) ReAdvise(ctx context.Context, w *Workload, opts AdviceOptions) (*Advice, ReadviseStats, error) {
	prev := s.last
	iw := w.internal()
	if prev != nil && prev.evalState.Reusable(s.view, iw) && sameQuestion(prev.opts, opts) {
		// Identical question against the same generation: the answer
		// cannot have changed.
		return prev.advice, ReadviseStats{
			Warm: true, Cached: true, CandidatesReused: true,
			ReusedQueries: len(iw.Queries),
		}, nil
	}
	advice, st, stats, err := s.d.advisePipeline(ctx, s.view, iw, opts, prev)
	if err != nil {
		return nil, ReadviseStats{}, err
	}
	s.last = st
	return advice, stats, nil
}

// advisePipeline is the shared advise pipeline: candidate generation →
// CoPhy BIP → AutoPart partitions → benefit report → interaction graph →
// materialization schedule, all against one pinned generation. warm (may
// be nil) supplies the previous derivation state for incremental reuse.
func (d *Designer) advisePipeline(ctx context.Context, v *engine.View, iw *workload.Workload, opts AdviceOptions, warm *adviceState) (*Advice, *adviceState, ReadviseStats, error) {
	if len(iw.Queries) == 0 {
		return nil, nil, ReadviseStats{}, errors.New("designer: empty workload")
	}
	stats := ReadviseStats{}

	// Warm state from another generation or workload is useless; drop it
	// here so every reuse below can key on the simpler conditions.
	if warm != nil && !warm.evalState.Reusable(v, iw) {
		warm = nil
	}

	seeds, err := structures(v.Session(), opts.SeedIndexes)
	if err != nil {
		return nil, nil, ReadviseStats{}, err
	}
	var adv *cophy.Advisor
	if warm != nil && sameCandidates(warm.opts, opts) {
		adv = warm.adv
		stats.Warm = true
		stats.CandidatesReused = true
	} else {
		candOpts := whatif.DefaultCandidateOptions()
		candOpts.IncludeProjections = opts.CandidateOptions.IncludeProjections
		candOpts.IncludeAggViews = opts.CandidateOptions.IncludeAggViews
		cands := v.Session().GenerateCandidates(iw, candOpts)
		// User-suggested candidates join (and may be pinned into) the search.
		have := make(map[string]bool, len(cands))
		for _, ix := range cands {
			have[ix.Key()] = true
		}
		for _, ix := range seeds {
			if !have[ix.Key()] {
				cands = append(cands, ix)
				have[ix.Key()] = true
			}
		}
		adv = cophy.New(d.eng, cands)
	}

	copts := cophy.DefaultOptions()
	copts.StorageBudgetPages = opts.StorageBudgetPages
	copts.NodeBudget = opts.NodeBudget
	if opts.PinIndexes {
		for _, ix := range seeds {
			copts.PinnedKeys = append(copts.PinnedKeys, ix.Key())
		}
	}
	if warm != nil {
		copts.WarmStartKeys = warm.basisKeys
	}
	cres, err := adv.AdviseView(ctx, v, iw, copts)
	if err != nil {
		return nil, nil, ReadviseStats{}, err
	}
	if cres.WarmStarted {
		stats.Warm = true
		stats.SolverWarmStarted = true
	}

	out := &Advice{
		Indexes: indexesFromInternal(cres.Indexes),
		Solver:  solverResultFromInternal(cres),
		cfg:     catalog.NewConfiguration(),
		schema:  d.store.Schema,
	}
	for _, ix := range cres.Indexes {
		out.cfg = out.cfg.WithIndex(ix)
	}

	if opts.Partitions {
		papt := autopart.New(d.eng)
		pres, err := papt.AdviseView(ctx, v, iw, out.cfg, autopart.DefaultOptions())
		if err != nil {
			return nil, nil, ReadviseStats{}, err
		}
		if pres.Improvement() > 0 {
			out.Partitions = d.partitionResultFromInternal(iw, pres)
			out.cfg = pres.Config
		}
	}

	var prevEval *engine.EvalState
	if warm != nil {
		prevEval = warm.evalState
	}
	rep, evalState, err := v.EvaluateDelta(ctx, iw, out.cfg, prevEval)
	if err != nil {
		return nil, nil, ReadviseStats{}, err
	}
	out.Report = reportFromInternal(rep, iw)
	stats.RecostedQueries = evalState.Recosted
	stats.ReusedQueries = evalState.Reused
	if evalState.Reused > 0 {
		stats.Warm = true
	}

	if opts.Interactions && len(out.Indexes) >= 2 {
		g, err := interaction.AnalyzeView(ctx, v, iw, cres.Indexes, interaction.DefaultOptions())
		if err != nil {
			return nil, nil, ReadviseStats{}, err
		}
		out.Graph = graphFromInternal(g)
		s, err := schedule.New(d.eng).GreedyView(ctx, v, iw, cres.Indexes)
		if err != nil {
			return nil, nil, ReadviseStats{}, err
		}
		out.Schedule = scheduleFromInternal(s)
	}

	basis := make([]string, 0, len(cres.Indexes))
	for _, ix := range cres.Indexes {
		basis = append(basis, ix.Key())
	}
	opts.SeedIndexes = slices.Clone(opts.SeedIndexes)
	st := &adviceState{opts: opts, advice: out, basisKeys: basis, adv: adv, evalState: evalState}
	return out, st, stats, nil
}
