package designer

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/livedb"
	"repro/internal/livedb/livedbtest"
)

// The committed fixture is a recorded livedb trace of the full
// import→advise→apply pipeline against the livedbtest "shopdb" fake.
// `go test ./designer -run TestLiveFixture -update-live-fixture`
// regenerates it after a deliberate change to the SQL the pipeline issues.
var updateLiveFixture = flag.Bool("update-live-fixture", false,
	"re-record designer/testdata/live_shopdb.json from the livedbtest fake")

const liveFixturePath = "testdata/live_shopdb.json"

// shortRowFixturePath is liveFixturePath with the first row of the tables
// query cut to one field: a result narrower than its select list.
const shortRowFixturePath = "testdata/live_shopdb_short_row.json"

// liveOutcome is everything observable from one full pipeline run.
type liveOutcome struct {
	info  LiveInfo
	w     *Workload
	imp   *LiveImportReport
	cc    *LiveCrossCheck
	adv   *Advice
	apply *LiveApplyReport
}

// runLivePipeline drives import → cross-check → advise → apply → rollback
// over an opened live handle. The sequence of SQL it causes is exactly what
// the committed fixture records, so record and replay must stay in step.
func runLivePipeline(t *testing.T, lv *Live) liveOutcome {
	t.Helper()
	ctx := context.Background()
	out := liveOutcome{info: lv.Info()}

	w, imp, err := lv.ImportWorkload(ctx, LiveImportOptions{})
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	out.w, out.imp = w, imp

	cc, err := lv.CrossCheck(ctx, w, 4, 3.0)
	if err != nil {
		t.Fatalf("cross-check: %v", err)
	}
	out.cc = cc

	adv, err := lv.Advise(ctx, w, AdviceOptions{})
	if err != nil {
		t.Fatalf("advise: %v", err)
	}
	out.adv = adv

	// Apply a fixed structure set (one native secondary, one advisory
	// aggregate view) so the fixture always exercises both paths, whatever
	// the advisor picks this round.
	rep, err := lv.Apply(ctx, []Index{
		{Table: "orders", Columns: []string{"customer_id"}},
		{Table: "orders", Columns: []string{"status"}, Kind: "aggview", Aggs: []string{"count(*)"}},
	}, LiveApplyOptions{})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	out.apply = rep
	if err := lv.RollbackApply(ctx, rep); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	return out
}

func checkLiveOutcome(t *testing.T, out liveOutcome) {
	t.Helper()
	if out.info.Database != "shopdb" {
		t.Errorf("database = %q, want shopdb", out.info.Database)
	}
	if !strings.HasPrefix(out.info.Backend, BackendLive) {
		t.Errorf("backend = %q, want live-fitted", out.info.Backend)
	}
	if len(out.info.ExistingIndexes) != 1 || out.info.ExistingIndexes[0].Name != "customers_region_idx" {
		t.Errorf("existing indexes = %+v", out.info.ExistingIndexes)
	}

	if out.imp.Imported != 4 || len(out.imp.Skipped) != 2 {
		t.Fatalf("import report = %+v", out.imp)
	}
	qs := out.w.Queries()
	if len(qs) != 4 {
		t.Fatalf("workload = %+v", qs)
	}
	if qs[0].Weight() != 1200 || !strings.Contains(qs[0].SQL(), "customer_id = 17") {
		t.Errorf("heaviest imported query = %+v", qs[0])
	}

	if len(out.cc.Probes) != 4 {
		t.Fatalf("cross-check probes = %+v", out.cc.Probes)
	}
	// The fake pins the full scan's EXPLAIN at the raw seq-scan formula
	// (1200 pages + 100000 rows = 2200); the engine's plan additionally
	// charges per-row output evaluation, so the probe agrees to ~11%, not
	// exactly. Anything past 15% means a pricing path regressed.
	var sawFullScan bool
	for _, p := range out.cc.Probes {
		if strings.Contains(p.SQL, "status FROM orders") {
			sawFullScan = true
			if p.RelErr > 0.15 {
				t.Errorf("full-scan probe disagreement: %+v", p)
			}
		}
	}
	if !sawFullScan {
		t.Errorf("no full-scan probe in %+v", out.cc.Probes)
	}
	if !out.cc.Pass {
		t.Errorf("cross-check failed: %+v", out.cc)
	}

	if out.adv.Report == nil {
		t.Errorf("advice has no report")
	}

	if out.apply.Applied != 1 || out.apply.Advisory != 1 || out.apply.Failed {
		t.Fatalf("apply report = %+v", out.apply)
	}
	var statuses []string
	for _, s := range out.apply.Steps {
		statuses = append(statuses, s.Status)
	}
	if strings.Join(statuses, ",") != "applied,advisory" {
		t.Errorf("apply statuses = %v", statuses)
	}
	if sum := out.apply.Summary(); !strings.Contains(sum, "advisory=1 applied=1") {
		t.Errorf("summary = %q", sum)
	}
}

// TestLiveFixture runs the full live pipeline twice offline: once straight
// off the committed replay trace, and once re-recording that replay — the
// re-recorded trace must be byte-identical to the fixture. That pins both
// the SQL the pipeline issues and the trace encoding, in plain `go test`
// with no PostgreSQL anywhere.
func TestLiveFixture(t *testing.T) {
	if *updateLiveFixture {
		db := livedb.NewRecordingFromQuerier(livedbtest.NewFake())
		lv, err := openLive(context.Background(), db, openOptions{record: true})
		if err != nil {
			t.Fatalf("open over fake: %v", err)
		}
		defer lv.Close()
		checkLiveOutcome(t, runLivePipeline(t, lv))
		if err := os.MkdirAll(filepath.Dir(liveFixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := lv.WriteLiveTrace(liveFixturePath); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-recorded %s", liveFixturePath)
		return
	}

	want, err := os.ReadFile(liveFixturePath)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update-live-fixture): %v", err)
	}

	lv, err := OpenLiveTrace(liveFixturePath, WithRecording())
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer lv.Close()
	if lv.Info().Source != "replay" {
		t.Errorf("source = %q, want replay", lv.Info().Source)
	}
	checkLiveOutcome(t, runLivePipeline(t, lv))

	got := filepath.Join(t.TempDir(), "rerecorded.json")
	if err := lv.WriteLiveTrace(got); err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, want) {
		t.Fatalf("re-recorded trace diverges from fixture (%d vs %d bytes): the pipeline issues different SQL than when the fixture was recorded",
			len(gotBytes), len(want))
	}
}

// TestLiveBackendSpecFromTrace exercises BackendSpec{Kind: "live"}: the
// designer-facade path serve uses, resolving planner constants from a
// recorded trace into a calibrated backend.
func TestLiveBackendSpecFromTrace(t *testing.T) {
	if *updateLiveFixture {
		t.Skip("fixture being regenerated")
	}
	d, err := OpenSDSS("tiny", 1, WithBackend(BackendSpec{Kind: BackendLive, LiveTraceFile: liveFixturePath}))
	if err != nil {
		t.Fatalf("open with live backend: %v", err)
	}
	info := d.Backend()
	if info.Kind != BackendCalibrated {
		t.Errorf("backend kind = %q, want calibrated (live resolves to fitted constants)", info.Kind)
	}
	if !strings.Contains(info.Description, "live:shopdb") && !strings.Contains(info.Description, "live") {
		t.Errorf("backend description = %q, want live-fitted profile name", info.Description)
	}

	if _, err := OpenSDSS("tiny", 1, WithBackend(BackendSpec{Kind: BackendLive})); err == nil {
		t.Error("live backend with no DSN and no trace should fail")
	}
	if _, err := OpenSDSS("tiny", 1, WithBackend(BackendSpec{
		Kind: BackendLive, DSN: "postgres://x@y/z", LiveTraceFile: liveFixturePath,
	})); err == nil {
		t.Error("live backend with both DSN and trace should fail")
	}
}

// TestLiveRefusesWithBackend: a live designer prices through the
// calibration it fits from the server, so OpenLiveTrace and OpenLive refuse
// WithBackend, whatever it names, instead of ignoring it; OpenLive refuses
// before it dials. Without the option the same trace opens.
func TestLiveRefusesWithBackend(t *testing.T) {
	for _, spec := range []BackendSpec{{Kind: BackendCalibrated}, {Kind: BackendNative}, {Kind: BackendLive, LiveTraceFile: liveFixturePath}, {}} {
		lv, err := OpenLiveTrace(liveFixturePath, WithBackend(spec))
		if err == nil {
			lv.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "WithBackend") {
			t.Errorf("OpenLiveTrace with WithBackend(%+v): error %v, want a refusal naming WithBackend", spec, err)
		}
		lv, err = OpenLive(context.Background(), "postgres://nobody@127.0.0.1:1/none", WithBackend(spec), WithRecording())
		if err == nil {
			lv.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "WithBackend") {
			t.Errorf("OpenLive with WithBackend(%+v): error %v, want a refusal naming WithBackend", spec, err)
		}
	}
	lv, err := OpenLiveTrace(liveFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	lv.Close()
}

// TestLiveTraceShortRowIsAnError: a recorded row narrower than its query's
// select list fails the open with an error naming the query, not a panic.
func TestLiveTraceShortRowIsAnError(t *testing.T) {
	lv, err := OpenLiveTrace(shortRowFixturePath)
	if err == nil {
		lv.Close()
		t.Fatal("a trace with a short row opened")
	}
	if !strings.Contains(err.Error(), "snapshot tables") || !strings.Contains(err.Error(), "SELECT c.relname") {
		t.Fatalf("error %q does not name the tables query", err)
	}
}
