package livedb_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/livedb"
	"repro/internal/livedb/livedbtest"
	"repro/internal/livedb/pgwire"
	"repro/internal/sqlparse"
)

func ctx() context.Context { return context.Background() }

func snapFake(t testing.TB) (*livedb.DB, *livedb.Snapshot) {
	t.Helper()
	db := livedb.NewFromQuerier(livedbtest.NewFake())
	snap, err := livedb.TakeSnapshot(ctx(), db)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return db, snap
}

func TestSnapshotBuildsSchemaAndStats(t *testing.T) {
	_, snap := snapFake(t)
	if snap.Database != "shopdb" {
		t.Errorf("database = %q", snap.Database)
	}
	if got := len(snap.Schema.Tables()); got != 2 {
		t.Fatalf("tables = %d, want 2", got)
	}
	orders := snap.Schema.Table("orders")
	if orders == nil || len(orders.Columns) != 4 {
		t.Fatalf("orders = %+v", orders)
	}
	if orders.Column("amount").Type != catalog.KindFloat ||
		orders.Column("order_id").Type != catalog.KindInt ||
		orders.Column("status").Type != catalog.KindString {
		t.Errorf("column kinds wrong: %+v", orders.Columns)
	}
	if got := orders.Column("status").AvgWidth; got != 7 {
		t.Errorf("status avg width = %d, want 7 (from pg_stats)", got)
	}

	ts := snap.Stats.Table("orders")
	if ts == nil || ts.RowCount != 100000 || ts.Pages != 1200 {
		t.Fatalf("orders stats = %+v", ts)
	}
	oid := ts.Column("order_id")
	if oid.NDV != 100000 { // n_distinct = -1 → fraction of rowcount
		t.Errorf("order_id NDV = %d, want 100000", oid.NDV)
	}
	amount := ts.Column("amount")
	if amount.NDV != 50000 { // n_distinct = -0.5
		t.Errorf("amount NDV = %d, want 50000", amount.NDV)
	}
	status := ts.Column("status")
	if len(status.MCVs) != 4 || status.MCVs[0].Value.S != "shipped" || status.MCVs[0].Freq != 0.6 {
		t.Errorf("status MCVs = %+v", status.MCVs)
	}
	if status.NullFrac != 0.01 {
		t.Errorf("status null frac = %v", status.NullFrac)
	}
	if amount.Hist == nil || amount.Hist.Bounds[0].F != 1.5 {
		t.Errorf("amount histogram = %+v", amount.Hist)
	}
	if amount.Min.F != 1.5 || amount.Max.F != 999.99 {
		t.Errorf("amount min/max = %v/%v", amount.Min, amount.Max)
	}
	// No histogram for region: min/max fall back to the MCV domain.
	region := snap.Stats.Table("customers").Column("region")
	if region.Min.IsNull() || region.Max.IsNull() {
		t.Errorf("region min/max should come from MCVs, got %v/%v", region.Min, region.Max)
	}

	if len(snap.Existing) != 1 || snap.Existing[0].Name != "customers_region_idx" ||
		snap.Existing[0].Table != "customers" {
		t.Errorf("existing indexes = %+v", snap.Existing)
	}
}

func TestImportDedupWeightsAndSkips(t *testing.T) {
	db, snap := snapFake(t)
	rep, err := livedb.ImportPgStatStatements(ctx(), db, snap, livedb.ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seen != 6 {
		t.Errorf("seen = %d, want 6", rep.Seen)
	}
	if len(rep.Queries) != 4 {
		t.Fatalf("imported %d queries, want 4 (UPDATE and BEGIN skipped): %+v", len(rep.Queries), rep.Queries)
	}
	// Heaviest template first, weights carried from call counts.
	if rep.Queries[0].Weight != 1200 || !strings.Contains(rep.Queries[0].SQL, "customer_id = 17") {
		t.Errorf("top query = %+v (want MCV-instantiated equality)", rep.Queries[0])
	}
	// BETWEEN placeholders take the 25%/75% histogram quantiles.
	var betweenSQL string
	for _, q := range rep.Queries {
		if strings.Contains(q.SQL, "BETWEEN") {
			betweenSQL = q.SQL
		}
	}
	if !strings.Contains(betweenSQL, "250.5") || !strings.Contains(betweenSQL, "751.25") {
		t.Errorf("between query = %q, want quartile bounds 250.5 and 751.25", betweenSQL)
	}
	// The string equality on region takes the top MCV.
	var joinSQL string
	for _, q := range rep.Queries {
		if strings.Contains(q.SQL, "customers") {
			joinSQL = q.SQL
		}
	}
	if !strings.Contains(joinSQL, "'east'") {
		t.Errorf("join query = %q, want region = 'east'", joinSQL)
	}
	if len(rep.Skipped) != 2 {
		t.Errorf("skipped = %+v, want UPDATE and BEGIN", rep.Skipped)
	}
	for _, q := range rep.Queries {
		if q.Stmt == nil {
			t.Errorf("query %s not resolved", q.ID)
		}
	}
}

func TestImportSQLFileAccumulatesRepeats(t *testing.T) {
	_, snap := snapFake(t)
	text := `
-- morning batch
SELECT order_id, amount FROM orders WHERE customer_id = 42;
SELECT order_id, amount FROM orders WHERE customer_id = 7;
SELECT count(*) FROM orders WHERE status = 'pending';
DELETE FROM orders WHERE order_id = 1;
`
	rep := livedb.ImportSQLFile("batch.sql", text, snap, livedb.ImportOptions{})
	if rep.Seen != 4 {
		t.Errorf("seen = %d", rep.Seen)
	}
	if len(rep.Queries) != 2 {
		t.Fatalf("queries = %+v", rep.Queries)
	}
	// The two customer_id lookups are one template with weight 2.
	if rep.Queries[0].Weight != 2 {
		t.Errorf("dedup weight = %v, want 2", rep.Queries[0].Weight)
	}
	if len(rep.Skipped) != 1 || !strings.Contains(rep.Skipped[0].SQL, "DELETE") {
		t.Errorf("skipped = %+v", rep.Skipped)
	}
}

func TestTemplateFingerprintMasksLiterals(t *testing.T) {
	a := sqlparse.Template("SELECT x FROM t WHERE a = 5 AND b = 'x'")
	b := sqlparse.Template("select x from t where a = 99 and b = 'other'")
	c := sqlparse.Template("SELECT x FROM t WHERE a = $1 AND b = $2")
	if a != b || b != c {
		t.Errorf("fingerprints differ:\n%q\n%q\n%q", a, b, c)
	}
	d := sqlparse.Template("SELECT y FROM t WHERE a = 5")
	if a == d {
		t.Error("different templates collided")
	}
}

func TestFitCalibrationReadsPgSettings(t *testing.T) {
	db, snap := snapFake(t)
	cal, err := livedb.FitCalibration(ctx(), db, snap)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Name != "live:shopdb" {
		t.Errorf("name = %q", cal.Name)
	}
	if cal.RandomPageCost != 1.1 || cal.SeqPageCost != 1 || cal.CPUTupleCost != 0.01 ||
		cal.CPUOperatorCost != 0.0025 || cal.EffectiveCacheSizePages != 524288 {
		t.Errorf("calibration = %+v", cal)
	}
}

func TestExplainCostAndCrossCheck(t *testing.T) {
	db, _ := snapFake(t)
	const fullScan = "SELECT order_id, customer_id, amount, status FROM orders"
	cost, err := livedb.ExplainCost(ctx(), db, fullScan)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2200 {
		t.Errorf("explain cost = %v, want 2200", cost)
	}
	rep, err := livedb.CrossCheck(ctx(), db, []livedb.CostedQuery{
		{ID: "q0", SQL: fullScan, ModelCost: 2200},
	}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.MaxRelErr != 0 {
		t.Errorf("cross-check = %+v", rep)
	}
	rep, err = livedb.CrossCheck(ctx(), db, []livedb.CostedQuery{
		{ID: "q0", SQL: fullScan, ModelCost: 4400},
	}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.MaxRelErr != 1 {
		t.Errorf("disagreeing cross-check = %+v", rep)
	}
}

func TestExplainUnparsablePlanIsLoud(t *testing.T) {
	fake := livedbtest.NewFake()
	fake.BadExplain = true
	db := livedb.NewFromQuerier(fake)
	_, err := livedb.ExplainCost(ctx(), db, "SELECT 1")
	if err == nil || !strings.Contains(err.Error(), "unparsable EXPLAIN") {
		t.Fatalf("err = %v, want unparsable EXPLAIN", err)
	}
}

func applySteps() []livedb.ApplyStep {
	return livedb.BuildSteps([]*catalog.Index{
		{Table: "orders", Columns: []string{"customer_id"}},
		{Table: "orders", Columns: []string{"status", "amount"}},
		{Table: "orders", Columns: []string{"customer_id"}, Kind: catalog.KindProjection, Include: []string{"amount"}},
		{Table: "orders", Columns: []string{"status"}, Kind: catalog.KindAggView, Aggs: []string{"count(*)"}},
	})
}

func TestBuildStepsKindsAndNames(t *testing.T) {
	steps := applySteps()
	if steps[0].DDL != "CREATE INDEX IF NOT EXISTS dbd_idx_orders_customer_id_0 ON orders (customer_id)" {
		t.Errorf("ddl = %q", steps[0].DDL)
	}
	if steps[0].Rollback != "DROP INDEX IF EXISTS dbd_idx_orders_customer_id_0" {
		t.Errorf("rollback = %q", steps[0].Rollback)
	}
	if !steps[2].Advisory || !strings.Contains(steps[2].DDL, "INCLUDE") {
		t.Errorf("projection step = %+v", steps[2])
	}
	if !steps[3].Advisory || !strings.Contains(steps[3].DDL, "MATERIALIZED VIEW") {
		t.Errorf("aggview step = %+v", steps[3])
	}
}

func TestApplyDryRunExecutesNothing(t *testing.T) {
	fake := livedbtest.NewFake()
	db := livedb.NewFromQuerier(fake)
	rep, err := livedb.Apply(ctx(), db, applySteps(), livedb.ApplyOptions{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 0 || rep.Advisory != 2 || len(fake.Queries()) != 0 {
		t.Errorf("dry run report = %+v, queries = %v", rep, fake.Queries())
	}
}

func TestApplyProgressAndRollback(t *testing.T) {
	fake := livedbtest.NewFake()
	db := livedb.NewFromQuerier(fake)
	var seen []string
	rep, err := livedb.Apply(ctx(), db, applySteps(), livedb.ApplyOptions{
		Progress: func(sr livedb.StepResult) { seen = append(seen, sr.Status) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 2 || rep.Advisory != 2 || rep.Failed {
		t.Fatalf("report = %+v", rep)
	}
	if len(seen) != 4 {
		t.Errorf("progress callbacks = %v", seen)
	}
	if err := livedb.Rollback(ctx(), db, rep); err != nil {
		t.Fatal(err)
	}
	var drops int
	for _, q := range fake.Queries() {
		if strings.HasPrefix(q, "DROP INDEX") {
			drops++
		}
	}
	if drops != 2 {
		t.Errorf("rollback issued %d drops, want 2", drops)
	}
}

func TestApplyFailureHalfwayStopsAndReportsPartialState(t *testing.T) {
	fake := livedbtest.NewFake()
	fake.ServerErrOn = "dbd_idx_orders_status_amount_1"
	db := livedb.NewFromQuerier(fake)
	rep, err := livedb.Apply(ctx(), db, applySteps(), livedb.ApplyOptions{})
	if err == nil {
		t.Fatal("apply should abort on error")
	}
	if !rep.Failed || rep.Applied != 1 {
		t.Fatalf("report = %+v", rep)
	}
	statuses := make([]string, len(rep.Steps))
	for i, sr := range rep.Steps {
		statuses[i] = sr.Status
	}
	want := []string{livedb.StepApplied, livedb.StepFailed, livedb.StepPending, livedb.StepPending}
	for i := range want {
		if statuses[i] != want[i] {
			t.Fatalf("statuses = %v, want %v", statuses, want)
		}
	}
}

func TestRecordReplayRoundTripIsBitDeterministic(t *testing.T) {
	runPipeline := func(db *livedb.DB) (*livedb.ImportReport, error) {
		snap, err := livedb.TakeSnapshot(ctx(), db)
		if err != nil {
			return nil, err
		}
		rep, err := livedb.ImportPgStatStatements(ctx(), db, snap, livedb.ImportOptions{})
		if err != nil {
			return nil, err
		}
		if _, err := livedb.FitCalibration(ctx(), db, snap); err != nil {
			return nil, err
		}
		return rep, nil
	}

	rec := livedb.NewRecordingFromQuerier(livedbtest.NewFake())
	liveRep, err := runPipeline(rec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.json")
	if err := rec.WriteTrace(p1); err != nil {
		t.Fatal(err)
	}

	// Replay the trace, re-recording the replayed session: a deterministic
	// pipeline over a complete trace reproduces it byte for byte.
	trace, err := livedb.LoadTrace(p1)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := livedb.NewRecordingFromQuerier(livedb.NewReplayer(trace))
	if rec2.Parameter("server_version") == "" {
		t.Error("replayed server_version missing")
	}
	replayRep, err := runPipeline(rec2)
	if err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, "b.json")
	if err := rec2.WriteTrace(p2); err != nil {
		t.Fatal(err)
	}
	b1 := mustRead(t, p1)
	b2 := mustRead(t, p2)
	if !bytes.Equal(b1, b2) {
		t.Error("record → replay → re-record is not byte-identical")
	}
	if len(liveRep.Queries) != len(replayRep.Queries) {
		t.Fatalf("live %d queries, replay %d", len(liveRep.Queries), len(replayRep.Queries))
	}
	for i := range liveRep.Queries {
		if liveRep.Queries[i].SQL != replayRep.Queries[i].SQL ||
			liveRep.Queries[i].Weight != replayRep.Queries[i].Weight {
			t.Errorf("query %d diverged: %+v vs %+v", i, liveRep.Queries[i], replayRep.Queries[i])
		}
	}
}

func TestReplayMissIsLoud(t *testing.T) {
	db := livedb.NewFromTrace(&livedb.Trace{Version: livedb.TraceVersion, Calls: []livedb.Call{
		{SQL: "SELECT 1", Cols: []string{"x"}, Rows: [][]string{{"1"}}},
	}})
	_, err := db.Query(ctx(), "SELECT 2")
	if err == nil || !strings.Contains(err.Error(), "replay miss") {
		t.Fatalf("err = %v, want replay miss", err)
	}
}

func TestReplayedErrorsKeepTheirClass(t *testing.T) {
	db := livedb.NewFromTrace(&livedb.Trace{Version: livedb.TraceVersion, Calls: []livedb.Call{
		{SQL: "SELECT a", Err: "relation does not exist", ErrCode: "42P01"},
		{SQL: "SELECT b", Err: "connection reset by peer"},
	}})
	_, err := db.Query(ctx(), "SELECT a")
	var se *pgwire.ServerError
	if !errors.As(err, &se) || se.Code != "42P01" {
		t.Errorf("server error did not replay as ServerError: %v", err)
	}
	_, err = db.Query(ctx(), "SELECT b")
	if err == nil || errors.As(err, &se) {
		t.Errorf("I/O error replayed as server error: %v", err)
	}
}

// TestConnectionLossMidImportIsReplayable records a session where
// pg_stat_statements dies mid-import, then replays it: the failure must
// reproduce identically from the trace.
func TestConnectionLossMidImportIsReplayable(t *testing.T) {
	fake := livedbtest.NewFake()
	fake.FailOn = "pg_stat_statements"
	rec := livedb.NewRecordingFromQuerier(fake)
	snap, err := livedb.TakeSnapshot(ctx(), rec)
	if err != nil {
		t.Fatal(err)
	}
	_, importErr := livedb.ImportPgStatStatements(ctx(), rec, snap, livedb.ImportOptions{})
	if importErr == nil {
		t.Fatal("import should fail when the connection drops")
	}

	replay := livedb.NewFromTrace(rec.Trace())
	snap2, err := livedb.TakeSnapshot(ctx(), replay)
	if err != nil {
		t.Fatal(err)
	}
	_, replayErr := livedb.ImportPgStatStatements(ctx(), replay, snap2, livedb.ImportOptions{})
	if replayErr == nil {
		t.Fatal("replayed import should fail like the live one")
	}
	if !strings.Contains(replayErr.Error(), "connection reset by peer") {
		t.Errorf("replayed error lost its cause: %v", replayErr)
	}
}

func TestTraceVersionMismatchFailsLoad(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "t.json")
	tr := &livedb.Trace{Version: 99}
	if err := tr.WriteFile(p); err != nil {
		t.Fatal(err)
	}
	if _, err := livedb.LoadTrace(p); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version mismatch", err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// importText imports one SQL file over the fake snapshot.
func importText(t *testing.T, text string) *livedb.ImportReport {
	t.Helper()
	_, snap := snapFake(t)
	return livedb.ImportSQLFile("w.sql", text, snap, livedb.ImportOptions{})
}

// TestImportBindsEveryParameterItReads: "amount-$2" is a subtraction to the
// importer because it is one to the lexer; no conjunct is lost, and the
// spaced spelling imports as it always did.
func TestImportBindsEveryParameterItReads(t *testing.T) {
	const want = "SELECT orders.order_id FROM orders WHERE orders.customer_id = 17 AND orders.amount - 500.99 > 3 AND orders.status = 'shipped'"
	for _, minus := range []string{"amount-$2", "amount - $2"} {
		rep := importText(t, "SELECT order_id FROM orders WHERE customer_id = $1 AND "+minus+" > 3 AND status = $3")
		if len(rep.Queries) != 1 || len(rep.Skipped) != 0 || rep.Queries[0].SQL != want {
			t.Errorf("%s: imported %+v, skipped %+v\nwant %s", minus, rep.Queries, rep.Skipped, want)
			continue
		}
		if q := rep.Queries[0]; q.Stmt.String() != q.SQL || q.Stmt.FirstParam() != nil {
			t.Errorf("%s: kept statement %q for SQL %q", minus, q.Stmt, q.SQL)
		}
	}
}

// TestImportRefusesParametersItCannotBind: a parameter nothing compares with
// a column is named, with what it is, at its place in the text as written.
func TestImportRefusesParametersItCannotBind(t *testing.T) {
	for _, tc := range []struct{ sql, param, says string }{
		{"SELECT order_id, amount FROM orders WHERE customer_id = $1 ORDER BY amount LIMIT $2", "$2", "parameter $2 in LIMIT"},
		{"SELECT order_id, $1 FROM orders", "$1", "parameter $1 is not compared with a column"},
		{"SELECT order_id FROM orders WHERE amount > $1 + 5", "$1", "parameter $1 is not compared with a column"},
	} {
		rep := importText(t, tc.sql)
		if len(rep.Queries) != 0 || len(rep.Skipped) != 1 {
			t.Errorf("%s: imported %+v, skipped %+v", tc.sql, rep.Queries, rep.Skipped)
			continue
		}
		reason := rep.Skipped[0].Reason
		want := fmt.Sprintf("sql:1:%d: %s", strings.LastIndex(tc.sql, tc.param)+1, tc.says)
		if !strings.HasPrefix(reason, want) {
			t.Errorf("%s: reason %q, want %q...", tc.sql, reason, want)
		}
	}
}

// TestImportCountsOneTemplateOnce: the template is the lexer's token stream,
// so spelling does not split a template's weight and nothing else joins two.
func TestImportCountsOneTemplateOnce(t *testing.T) {
	const head = "SELECT order_id FROM orders WHERE "
	for _, pair := range [][2]string{
		{"customer_id=5", "customer_id = 6"},
		{"customer_id <> 5", "customer_id != 6"},
		{"amount < 1E5", "amount < 2E7"},
		{"customer_id IN (1,2)", "customer_id IN (1, 2)"},
		{"customer_id = 5", "customer_id = 6 -- the other one"},
		{"status = 'it''s; $1 -- x'", "status = 'plain'"},
	} {
		rep := importText(t, head+pair[0]+";\n"+head+pair[1])
		if rep.Seen != 2 || len(rep.Queries) != 1 || rep.Queries[0].Weight != 2 {
			t.Errorf("%q + %q: seen %d, imported %+v, skipped %+v; want one 2x template",
				pair[0], pair[1], rep.Seen, rep.Queries, rep.Skipped)
			continue
		}
		// No parameter: the statement keeps the text it was written in.
		if got := rep.Queries[0].SQL; got != head+pair[0] {
			t.Errorf("SQL = %q, want %q", got, head+pair[0])
		}
	}
	for _, pair := range [][2]string{
		{"SELECT x FROM t1 WHERE a = 1", "SELECT x FROM t2 WHERE a = 1"},
		{head + "customer_id = 5", head + "customer_id > 5"},
	} {
		rep := importText(t, pair[0]+";"+pair[1])
		if n := len(rep.Queries) + len(rep.Skipped); n != 2 {
			t.Errorf("%q + %q: %d templates, want 2", pair[0], pair[1], n)
		}
	}
	// A template's representative is the first text that imports, whichever
	// arrives first: a text the designer cannot use ahead of one it can
	// neither skips the template nor splits its weight.
	for _, pair := range [][2]string{
		{head + "customer_id = 5 LIMIT $2", head + "customer_id = 5 LIMIT 10"},
		{head + "customer_id = ?", head + "customer_id = 5"},
	} {
		if a, b := sqlparse.Template(pair[0]), sqlparse.Template(pair[1]); a != b {
			t.Fatalf("%q and %q are templates %q and %q: not a case of one template", pair[0], pair[1], a, b)
		}
		for _, text := range []string{pair[0] + ";" + pair[1], pair[1] + ";" + pair[0]} {
			rep := importText(t, text)
			if rep.Seen != 2 || len(rep.Skipped) != 0 || len(rep.Queries) != 1 || rep.Queries[0].Weight != 2 || rep.Queries[0].SQL != pair[1] {
				t.Errorf("%q: seen %d, imported %+v, skipped %+v; want %q as one 2x template", text, rep.Seen, rep.Queries, rep.Skipped, pair[1])
			}
		}
	}
	// A statement the designer cannot use is one template too: skipped once.
	rep := importText(t, "UPDATE orders SET status = 'a' WHERE order_id = 1; update orders set status='b' where order_id=2")
	if rep.Seen != 2 || len(rep.Skipped) != 1 {
		t.Errorf("two UPDATEs: seen %d, skipped %+v; want one entry", rep.Seen, rep.Skipped)
	}
}

// TestImportSurvivesCharactersTheLexerLacks: a cast, a quoted identifier or
// "||" costs the statement it stands in and no other.
func TestImportSurvivesCharactersTheLexerLacks(t *testing.T) {
	const good = "SELECT order_id FROM orders WHERE customer_id = 5"
	for _, bad := range []string{"SELECT a::int FROM t", `SELECT "order_id" FROM orders`, "SELECT order_id FROM orders WHERE status = 'a' || status"} {
		rep := importText(t, bad+"; "+good)
		if rep.Seen != 2 || len(rep.Queries) != 1 || rep.Queries[0].SQL != good ||
			len(rep.Skipped) != 1 || rep.Skipped[0].SQL != bad || !strings.Contains(rep.Skipped[0].Reason, "unexpected character") {
			t.Errorf("%s: seen %d, imported %+v, skipped %+v", bad, rep.Seen, rep.Queries, rep.Skipped)
		}
	}
}

// TestImportSkipsSelfJoins: the importer keeps the statement it resolved, so
// it must not keep one whose SQL would not resolve again; Resolve refuses it.
func TestImportSkipsSelfJoins(t *testing.T) {
	rep := importText(t, "SELECT a.order_id FROM orders a, orders b WHERE a.customer_id = b.customer_id AND b.amount > $1")
	if len(rep.Queries) != 0 || len(rep.Skipped) != 1 || !strings.Contains(rep.Skipped[0].Reason, "self-join") {
		t.Errorf("imported %+v, skipped %+v", rep.Queries, rep.Skipped)
	}
}
