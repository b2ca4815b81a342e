package designer

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/executor"
	"repro/internal/livedb"
	"repro/internal/storage"
)

// Live is a designer advising a real external database (ROADMAP item 2,
// the paper's portability pillar closed end to end): the schema and
// statistics are snapshotted from the live catalog, the cost model is
// calibrated with the server's own planner constants, the workload is
// imported from pg_stat_statements, and advised schedules apply back to
// the server. All live interaction flows through a recordable trace, so a
// Live opened from a trace file behaves identically with no server at all.
type Live struct {
	*Designer
	db   *livedb.DB
	snap *livedb.Snapshot
	cal  *engine.Calibration
}

// OpenLive connects to the database at dsn (PostgreSQL URL or keyword
// form), snapshots its catalog and statistics, and opens a designer whose
// calibrated cost model uses the server's own cost constants. Open with
// WithRecording to capture the session for offline replay; WithBackend is
// refused.
func OpenLive(ctx context.Context, dsn string, opts ...Option) (*Live, error) {
	o, err := liveOptions(opts)
	if err != nil {
		return nil, err
	}
	var db *livedb.DB
	if o.record {
		db, err = livedb.OpenRecording(ctx, dsn)
	} else {
		db, err = livedb.Open(ctx, dsn)
	}
	if err != nil {
		return nil, err
	}
	lv, err := openLive(ctx, db, o)
	if err != nil {
		db.Close()
		return nil, err
	}
	return lv, nil
}

// OpenLiveTrace opens a Live from a recorded trace: the full
// import→advise→apply pipeline replays deterministically with no server.
// Like OpenLive, it refuses WithBackend.
func OpenLiveTrace(path string, opts ...Option) (*Live, error) {
	o, err := liveOptions(opts)
	if err != nil {
		return nil, err
	}
	t, err := livedb.LoadTrace(path)
	if err != nil {
		return nil, err
	}
	var db *livedb.DB
	if o.record {
		db = livedb.NewRecordingFromQuerier(livedb.NewReplayer(t))
	} else {
		db = livedb.NewFromTrace(t)
	}
	return openLive(context.Background(), db, o)
}

// liveOptions reads a live designer's open options. A live designer prices
// through the calibration it fits from the server's own planner settings,
// so it refuses WithBackend rather than ignore it.
func liveOptions(opts []Option) (openOptions, error) {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.backend {
		return o, errors.New("designer: a live designer prices through the calibration it fits from the server; WithBackend is for OpenSDSS and NewFromDDL")
	}
	return o, nil
}

func openLive(ctx context.Context, db *livedb.DB, o openOptions) (*Live, error) {
	snap, err := livedb.TakeSnapshot(ctx, db)
	if err != nil {
		return nil, err
	}
	if len(snap.Schema.Tables()) == 0 {
		return nil, errors.New("designer: live database has no tables in schema public")
	}
	cal, err := livedb.FitCalibration(ctx, db, snap)
	if err != nil {
		return nil, err
	}
	store := storage.NewStore(snap.Schema)
	store.Stats = snap.Stats
	// Existing secondary indexes join the base configuration so advice
	// builds on what is already there instead of re-recommending it; the
	// optimizer sizes them from statistics.
	base := catalog.NewConfiguration()
	for _, ix := range snap.Existing {
		if ix.Kind == catalog.KindSecondary && len(ix.Columns) > 0 {
			base = base.WithIndex(ix)
		}
	}
	espec := engine.BackendSpec{Kind: BackendCalibrated, Calibration: cal}
	eng, err := engine.NewWithBackend(store.Schema, store.Stats, base, espec)
	if err != nil {
		return nil, err
	}
	d := &Designer{store: store, eng: eng, exec: executor.New(store), trees: newTreeTable()}
	return &Live{Designer: d, db: db, snap: snap, cal: cal}, nil
}

// LiveInfo describes the live target.
type LiveInfo struct {
	// Database is the server-side database name.
	Database string
	// ServerVersion is the server's reported version.
	ServerVersion string
	// Source is the redacted DSN, or "replay" for trace-backed handles.
	Source string
	// Backend names the live-fitted calibration profile.
	Backend string
	// ExistingIndexes lists the secondary indexes already on the server.
	ExistingIndexes []Index
}

// Info reports what the live designer is connected to.
func (lv *Live) Info() LiveInfo {
	info := LiveInfo{
		Database:      lv.snap.Database,
		ServerVersion: lv.snap.Version,
		Source:        lv.db.Source(),
		Backend:       BackendLive + " (" + lv.cal.Name + ")",
	}
	info.ExistingIndexes = indexesFromInternal(lv.snap.Existing)
	return info
}

// LiveImportOptions tunes workload import.
type LiveImportOptions struct {
	// MaxTemplates caps imported templates, heaviest first (0 = 64).
	MaxTemplates int
	// MinCalls drops templates observed fewer times.
	MinCalls int64
}

// LiveSkippedQuery is a statement the importer rejected, with the reason.
type LiveSkippedQuery struct {
	SQL    string
	Reason string
}

// LiveImportReport summarizes a workload import.
type LiveImportReport struct {
	// Source is "pg_stat_statements" or "file:<name>".
	Source string
	// Seen counts statements examined; Imported counts templates kept.
	Seen, Imported int
	Skipped        []LiveSkippedQuery
}

func liveImportOut(rep *livedb.ImportReport) (*Workload, *LiveImportReport) {
	out := &LiveImportReport{Source: rep.Source, Seen: rep.Seen, Imported: len(rep.Queries)}
	for _, s := range rep.Skipped {
		out.Skipped = append(out.Skipped, LiveSkippedQuery{SQL: s.SQL, Reason: s.Reason})
	}
	return workloadFromInternal(rep.Workload()), out
}

// ImportWorkload imports the live workload from pg_stat_statements:
// templates deduplicated, weighted by call count, placeholders instantiated
// from the snapshot's statistics.
func (lv *Live) ImportWorkload(ctx context.Context, opts LiveImportOptions) (*Workload, *LiveImportReport, error) {
	rep, err := livedb.ImportPgStatStatements(ctx, lv.db, lv.snap,
		livedb.ImportOptions{MaxTemplates: opts.MaxTemplates, MinCalls: opts.MinCalls})
	if err != nil {
		return nil, nil, err
	}
	w, out := liveImportOut(rep)
	return w, out, nil
}

// ImportSQLText imports a workload from raw SQL text — the fallback when
// pg_stat_statements is unavailable (slow-query-log dumps, saved scripts).
func (lv *Live) ImportSQLText(name, text string, opts LiveImportOptions) (*Workload, *LiveImportReport) {
	rep := livedb.ImportSQLFile(name, text, lv.snap,
		livedb.ImportOptions{MaxTemplates: opts.MaxTemplates, MinCalls: opts.MinCalls})
	return liveImportOut(rep)
}

// LiveProbe is one EXPLAIN cross-check sample.
type LiveProbe struct {
	ID  string
	SQL string
	// ModelCost is the calibrated model's estimate; ExplainCost the
	// server's; RelErr their relative disagreement.
	ModelCost, ExplainCost, RelErr float64
}

// LiveCrossCheck reports calibrated-model vs EXPLAIN agreement.
type LiveCrossCheck struct {
	Probes    []LiveProbe
	Tolerance float64
	MaxRelErr float64
	Pass      bool
}

// CrossCheck probes up to sample queries of the workload with EXPLAIN and
// compares the server's cost against the calibrated model's, flagging
// disagreement beyond tolerance. It validates that advice priced by the
// model transfers to the live system.
func (lv *Live) CrossCheck(ctx context.Context, w *Workload, sample int, tolerance float64) (*LiveCrossCheck, error) {
	if sample <= 0 {
		sample = 3
	}
	if tolerance <= 0 {
		tolerance = 0.25
	}
	var items []livedb.CostedQuery
	v := lv.eng.Pin()
	for _, q := range w.internal().Queries {
		if len(items) >= sample {
			break
		}
		plan, err := v.Optimize(q.Stmt, nil)
		if err != nil {
			return nil, fmt.Errorf("designer: cross-check %s: %w", q.ID, err)
		}
		items = append(items, livedb.CostedQuery{ID: q.ID, SQL: q.SQL, ModelCost: plan.TotalCost()})
	}
	rep, err := livedb.CrossCheck(ctx, lv.db, items, tolerance)
	if err != nil {
		return nil, err
	}
	out := &LiveCrossCheck{Tolerance: rep.Tolerance, MaxRelErr: rep.MaxRelErr, Pass: rep.Pass}
	for _, p := range rep.Probes {
		out.Probes = append(out.Probes, LiveProbe{
			ID: p.ID, SQL: p.SQL, ModelCost: p.ModelCost, ExplainCost: p.ExplainCost, RelErr: p.RelErr,
		})
	}
	return out, nil
}

// LiveApplyOptions tunes schedule application.
type LiveApplyOptions struct {
	// DryRun reports the steps without executing anything.
	DryRun bool
	// Progress observes each step as it completes.
	Progress func(LiveApplyStep)
}

// LiveApplyStep is one applied (or advisory, or failed) schedule step.
type LiveApplyStep struct {
	// Key is the structure's canonical identity.
	Key string
	// Kind is "secondary", "projection", or "aggview".
	Kind string
	// DDL is what ran (or would run; or, for advisory kinds, what to hand
	// to an operator).
	DDL string
	// Rollback undoes the step.
	Rollback string
	// Status is "applied", "advisory", "dry-run", "failed", or "pending".
	Status string
	// Err carries the failure message for failed steps.
	Err string
	// Advisory marks structures this tool will not build on the server.
	Advisory bool
}

// LiveApplyReport is the (possibly partial) outcome of Apply.
type LiveApplyReport struct {
	Steps    []LiveApplyStep
	Applied  int
	Advisory int
	// Failed is true when a step errored: Steps shows exactly how far the
	// apply got before stopping.
	Failed bool
}

func liveStepOut(sr livedb.StepResult) LiveApplyStep {
	return LiveApplyStep{
		Key: sr.Step.Key, Kind: sr.Step.Kind, DDL: sr.Step.DDL, Rollback: sr.Step.Rollback,
		Status: sr.Status, Err: sr.Err, Advisory: sr.Step.Advisory,
	}
}

// Apply executes the advised structures against the live server in order,
// aborting on the first error: secondary indexes natively (CREATE INDEX IF
// NOT EXISTS), projections and aggregate views as advisory DDL; a spec the
// what-if constructor refuses stops it before any step. The returned report
// is valid even on error and shows the partial state.
func (lv *Live) Apply(ctx context.Context, indexes []Index, opts LiveApplyOptions) (*LiveApplyReport, error) {
	ixs, err := structures(lv.eng.Pin().Session(), indexes)
	if err != nil {
		return &LiveApplyReport{}, err
	}
	steps := livedb.BuildSteps(ixs)
	var iopts livedb.ApplyOptions
	iopts.DryRun = opts.DryRun
	if opts.Progress != nil {
		iopts.Progress = func(sr livedb.StepResult) { opts.Progress(liveStepOut(sr)) }
	}
	rep, err := livedb.Apply(ctx, lv.db, steps, iopts)
	out := &LiveApplyReport{Applied: rep.Applied, Advisory: rep.Advisory, Failed: rep.Failed}
	for _, sr := range rep.Steps {
		out.Steps = append(out.Steps, liveStepOut(sr))
	}
	return out, err
}

// RollbackApply undoes the applied steps of a report in reverse order
// (best effort), returning the first error.
func (lv *Live) RollbackApply(ctx context.Context, rep *LiveApplyReport) error {
	inner := &livedb.ApplyReport{}
	for _, s := range rep.Steps {
		inner.Steps = append(inner.Steps, livedb.StepResult{
			Step: livedb.ApplyStep{Key: s.Key, Kind: s.Kind, DDL: s.DDL,
				Rollback: s.Rollback, Advisory: s.Advisory},
			Status: s.Status, Err: s.Err,
		})
	}
	return livedb.Rollback(ctx, lv.db, inner)
}

// WriteLiveTrace saves every live interaction recorded so far (the Live
// must have been opened with WithRecording) as a replay trace file.
func (lv *Live) WriteLiveTrace(path string) error {
	if !lv.db.Recording() {
		return errors.New("designer: live session not recording; open with designer.WithRecording()")
	}
	return lv.db.WriteTrace(path)
}

// Close releases the live connection.
func (lv *Live) Close() error { return lv.db.Close() }

// liveCalibration resolves a BackendSpec{Kind: "live"} into cost constants
// by asking the live server (or a recorded trace) for its planner settings.
func liveCalibration(spec BackendSpec) (*engine.Calibration, error) {
	ctx := context.Background()
	var db *livedb.DB
	var err error
	switch {
	case spec.DSN != "" && spec.LiveTraceFile != "":
		return nil, errors.New("designer: live backend takes a DSN or a trace file, not both")
	case spec.DSN != "":
		db, err = livedb.Open(ctx, spec.DSN)
	case spec.LiveTraceFile != "":
		db, err = livedb.OpenTrace(spec.LiveTraceFile)
	default:
		return nil, errors.New("designer: live backend needs a DSN or a trace file")
	}
	if err != nil {
		return nil, err
	}
	defer db.Close()
	return livedb.FitCalibration(ctx, db, nil)
}

// Summary renders apply steps as a deterministic, operator-readable
// script — used by the CLI and by offline fixtures that assert
// bit-determinism of the whole pipeline.
func (r *LiveApplyReport) Summary() string {
	var b strings.Builder
	statuses := map[string]int{}
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "%-9s %s;\n", s.Status+":", s.DDL)
		if s.Err != "" {
			fmt.Fprintf(&b, "          -- error: %s\n", s.Err)
		}
		statuses[s.Status]++
	}
	keys := slices.Sorted(maps.Keys(statuses))
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, statuses[k])
	}
	fmt.Fprintf(&b, "-- %s\n", strings.Join(parts, " "))
	return b.String()
}
