package designer

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/autopart"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/interaction"
	"repro/internal/workload"
)

// DesignSession is the interactive what-if session of Scenario 1: the user
// assembles a hypothetical design — indexes and partitions — and asks for
// its benefit, per-query plans, interaction graph, and rewritten queries,
// all without building anything.
//
// A session pins one engine generation at creation: every evaluation runs
// against that consistent snapshot even if the designer is concurrently
// re-analyzed or indexes are materialized — the isolation the serve layer
// relies on for concurrent HTTP sessions. Sessions created afterwards see
// the new generation.
//
// A DesignSession is not safe for concurrent use; guard it externally (the
// serve layer does).
type DesignSession struct {
	d *Designer
	// view is the generation the session was pinned to, in its backend: the
	// design starts from its base, and structures are sized, advice is
	// derived and interactions are priced on it.
	view *engine.View
	// eval is the view the session evaluates and explains on: view
	// itself, or the one SetJoinControl derived from it under the
	// session's join switches, which steer nothing else.
	eval *engine.View
	cfg  *catalog.Configuration

	// last is the derivation state of the session's last advice, nil
	// before the first (Advise/ReAdvise, readvise.go).
	last *adviceState
	// evalState warm-starts successive Evaluate calls: when the session's
	// design changes by K indexes between evaluations of the same
	// workload, only the queries touching changed tables are re-priced.
	evalState *engine.EvalState
}

// NewDesignSession starts an interactive what-if session on top of the
// current materialized design, pinned to the current engine generation. The
// session is one question: its costing cache lives as long as it does.
func (d *Designer) NewDesignSession() *DesignSession {
	return newDesignSession(d, d.eng.Pin())
}

// newDesignSession starts the session's design from the view's own base:
// the view carries the design that was materialized when its generation was
// built, so the session's starting point and the generation it prices on
// cannot disagree, whatever Materialize does in the meantime.
func newDesignSession(d *Designer, view *engine.View) *DesignSession {
	return &DesignSession{d: d, view: view, eval: view, cfg: view.Base().Clone()}
}

// SessionOptions configure an interactive what-if session.
type SessionOptions struct {
	// Backend prices this session through a different cost backend than the
	// designer's — the per-session portability surface: one analyst can
	// explore a design under calibrated SSD costs while everyone else stays
	// on the native model. The zero value inherits the designer's backend;
	// an explicit Kind (including "native") pins that backend regardless of
	// what the designer runs on.
	Backend BackendSpec
}

// NewDesignSessionWith starts a what-if session with explicit options. Like
// every session, it owns its costing state (its own plan-cost cache), so a
// session-scoped backend can never alias the designer's cached costs.
func (d *Designer) NewDesignSessionWith(opts SessionOptions) (*DesignSession, error) {
	if opts.Backend.inherit() {
		return d.NewDesignSession(), nil
	}
	espec, err := opts.Backend.internal()
	if err != nil {
		return nil, err
	}
	view, err := d.eng.PinBackend(espec)
	if err != nil {
		return nil, err
	}
	return newDesignSession(d, view), nil
}

// Backend reports the cost backend this session prices through.
func (s *DesignSession) Backend() BackendInfo {
	return backendInfoFromInternal(s.view.Backend())
}

// Config returns (a copy of) the session's hypothetical configuration.
func (s *DesignSession) Config() *Configuration { return configFromInternal(s.cfg.Clone()) }

// AddIndex adds a sized hypothetical index to the design.
func (s *DesignSession) AddIndex(table string, columns ...string) (Index, error) {
	return s.add(catalog.KindSecondary, table, columns, nil)
}

// AddProjection adds a sized hypothetical covering projection (key columns
// plus INCLUDE payload) to the design.
func (s *DesignSession) AddProjection(table string, keys, include []string) (Index, error) {
	return s.add(catalog.KindProjection, table, keys, include)
}

// AddAggView adds a sized hypothetical single-table aggregate materialized
// view (group keys plus stored aggregates) to the design.
func (s *DesignSession) AddAggView(table string, keys, aggs []string) (Index, error) {
	return s.add(catalog.KindAggView, table, keys, aggs)
}

// add adds a sized hypothetical structure of the kind to the design,
// refusing one whose key the design already holds.
func (s *DesignSession) add(kind catalog.StructureKind, table string, keys, extra []string) (Index, error) {
	ix, err := s.view.Session().Hypothetical(kind, table, keys, extra)
	if err != nil {
		return Index{}, err
	}
	if s.cfg.HasIndex(ix.Key()) {
		noun := "structure"
		if kind == catalog.KindSecondary {
			noun = "index"
		}
		return Index{}, fmt.Errorf("designer: %s %s already in the design", noun, ix.Key())
	}
	s.cfg = s.cfg.WithIndex(ix)
	return indexFromInternal(ix), nil
}

// DropIndex removes an index from the design by canonical key
// (table(col1,col2)).
func (s *DesignSession) DropIndex(key string) bool {
	if !s.cfg.HasIndex(strings.ToLower(key)) {
		return false
	}
	s.cfg = s.cfg.WithoutIndex(strings.ToLower(key))
	return true
}

// AddVerticalPartition declares a hypothetical vertical layout. Fragments
// list non-PK columns, in any case; every column of the table must appear
// exactly once. The session keeps its own copy, lower-cased as every layout
// is: editing fragments afterwards changes nothing in the design, and the
// layout renders (DDL, reports, rewrites) in lower case whatever the
// caller's spelling.
func (s *DesignSession) AddVerticalPartition(table string, fragments [][]string) error {
	t := s.d.store.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("designer: unknown table %q", table)
	}
	pk := map[string]bool{}
	for _, c := range t.PrimaryKey {
		pk[strings.ToLower(c)] = true
	}
	seen := map[string]bool{}
	layout := &catalog.VerticalLayout{Table: strings.ToLower(t.Name), Fragments: make([][]string, len(fragments))}
	for i, frag := range fragments {
		layout.Fragments[i] = slices.Clone(frag)
		for _, c := range frag {
			lc := strings.ToLower(c)
			if !t.HasColumn(c) {
				return fmt.Errorf("designer: table %s has no column %q", table, c)
			}
			if pk[lc] {
				return fmt.Errorf("designer: primary-key column %q is replicated automatically; leave it out", c)
			}
			if seen[lc] {
				return fmt.Errorf("designer: column %q appears in two fragments", c)
			}
			seen[lc] = true
		}
	}
	for _, col := range t.Columns {
		lc := strings.ToLower(col.Name)
		if !pk[lc] && !seen[lc] {
			return fmt.Errorf("designer: column %q missing from the layout", col.Name)
		}
	}
	s.cfg.SetVertical(layout)
	return nil
}

// AddHorizontalPartition declares a hypothetical range layout with k
// fragments split at histogram quantiles of the column, read from the
// statistics of the session's pinned generation.
func (s *DesignSession) AddHorizontalPartition(table, column string, k int) error {
	t := s.d.store.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("designer: unknown table %q", table)
	}
	if !t.HasColumn(column) {
		return fmt.Errorf("designer: table %s has no column %q", table, column)
	}
	if k < 2 {
		return fmt.Errorf("designer: need at least 2 fragments, got %d", k)
	}
	ts := s.view.Stats().Table(table)
	if ts == nil {
		return fmt.Errorf("designer: table %s has no statistics; run ANALYZE", table)
	}
	cs := ts.Column(column)
	if cs == nil || cs.Hist == nil {
		return fmt.Errorf("designer: column %s.%s has no histogram", table, column)
	}
	var bounds []catalog.Datum
	for i := 1; i < k; i++ {
		bounds = append(bounds, cs.Hist.Quantile(float64(i)/float64(k)))
	}
	s.cfg.SetHorizontal(&catalog.HorizontalLayout{
		Table: strings.ToLower(t.Name), Column: strings.ToLower(column), Bounds: bounds,
	})
	return nil
}

// Evaluate reports the benefit of the session's design for the workload —
// the numbers Scenario 1's panel shows. Queries are priced in parallel
// against the session's pinned generation and backend, under its join
// switches if SetJoinControl set any; a cancelled context aborts
// mid-evaluation. Evaluation is delta costing: successive evaluations of
// the same workload on the same view reuse the previous per-query costs
// for every query the design's edits cannot reach — the
// add-one-index/ask-again loop re-prices only the affected queries, with
// numbers identical to a cold evaluation. The first evaluation after
// SetJoinControl changes the view prices every query.
func (s *DesignSession) Evaluate(ctx context.Context, w *Workload) (*Report, error) {
	iw := w.internal()
	rep, st, err := s.eval.EvaluateDelta(ctx, iw, s.cfg, s.evalState)
	if err != nil {
		return nil, err
	}
	s.evalState = st
	return reportFromInternal(rep, iw), nil
}

// LastEvaluateDelta reports how the most recent successful Evaluate split
// the workload, read off the session's delta state: queries re-priced
// versus reused from the previous evaluation (0, 0 before any evaluation;
// all queries recost on a cold one).
func (s *DesignSession) LastEvaluateDelta() (recosted, reused int) {
	if s.evalState == nil {
		return 0, 0
	}
	return s.evalState.Recosted, s.evalState.Reused
}

// EvaluatedWorkload returns the workload the session's delta state prices —
// the last successful Evaluate's — or nil. It wraps the state's own
// queries, so nothing is copied, and an Evaluate of it on the same view
// (no SetJoinControl between) reuses the state.
func (s *DesignSession) EvaluatedWorkload() *Workload {
	if s.evalState == nil {
		return nil
	}
	return workloadFromInternal(&workload.Workload{Queries: s.evalState.Queries()})
}

// Explain renders the plan one query would take under the design.
func (s *DesignSession) Explain(q Query) (string, error) {
	if err := q.valid(); err != nil {
		return "", err
	}
	return s.eval.Session().Explain(q.stmt, s.cfg)
}

// InteractionGraph computes the interaction graph between the design's
// hypothetical indexes (Figure 2).
func (s *DesignSession) InteractionGraph(ctx context.Context, w *Workload) (*InteractionGraph, error) {
	var hypo []*catalog.Index
	for _, ix := range s.cfg.Indexes {
		if ix.Hypothetical {
			hypo = append(hypo, ix)
		}
	}
	g, err := interaction.AnalyzeView(ctx, s.view, w.internal(), hypo, interaction.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return graphFromInternal(g), nil
}

// RewrittenQueries returns, for every workload query affected by the
// design's vertical layouts, the SQL rewritten onto fragment tables
// (Scenario 1's "save the rewritten queries").
func (s *DesignSession) RewrittenQueries(w *Workload) map[string]string {
	out := make(map[string]string)
	for _, q := range w.internal().Queries {
		if sql, changed := autopart.RewriteQuery(q.Stmt, s.d.store.Schema, s.cfg); changed {
			out[q.ID] = sql
		}
	}
	return out
}

// SetJoinControl steers join methods for this session's subsequent
// Evaluate/Explain calls (the what-if join component): they run on a view
// derived from the session's pinned one under the switches, which fixes
// them as a backend is fixed. The switches are scoped to the design
// session: advisor pricing and query execution on the designer keep the
// unrestricted optimizer. The zero JoinControl returns the session to its
// pinned view. Either way the next Evaluate prices every query on the new
// view, and the ones after it delta-cost there.
func (s *DesignSession) SetJoinControl(jc JoinControl) {
	s.eval = s.view
	if jc != (JoinControl{}) {
		s.eval = s.view.WithOptions(jc.internal())
	}
}
