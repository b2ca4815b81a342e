package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// liveFixture is the committed livedb replay trace recorded against the
// livedbtest "shopdb" fake — the CLI's live commands run fully offline
// over it.
const liveFixture = "../../designer/testdata/live_shopdb.json"

func TestCmdImportOverTrace(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdImport([]string{"--live-trace", liveFixture, "--check", "4", "--tolerance", "3"})
	})
	for _, want := range []string{
		"connected: shopdb",
		"via replay",
		"existing index: customers_region_idx",
		"4 templates imported from pg_stat_statements",
		"1200x",
		"customer_id = 17",
		"skipped:",
		"cross-check passed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("import output missing %q:\n%s", want, out)
		}
	}
	// Deterministic: a second run over the same trace prints the same thing.
	if out2 := captureStdout(t, func() error {
		return cmdImport([]string{"--live-trace", liveFixture, "--check", "4", "--tolerance", "3"})
	}); out2 != out {
		t.Errorf("import over a fixed trace not deterministic:\n%s\nvs\n%s", out, out2)
	}
}

// TestCmdImportShortRowTrace: import over a trace whose tables query
// returned a row narrower than its select list is an error, not a crash.
func TestCmdImportShortRowTrace(t *testing.T) {
	err := cmdImport([]string{"--live-trace", "../../designer/testdata/live_shopdb_short_row.json"})
	if err == nil || !strings.Contains(err.Error(), "snapshot tables") {
		t.Fatalf("import over a short-row trace: err = %v, want the tables query refused", err)
	}
}

func TestCmdImportFromSQLFile(t *testing.T) {
	sqlPath := filepath.Join(t.TempDir(), "workload.sql")
	script := "SELECT order_id FROM orders WHERE customer_id = 42;\n" +
		"SELECT order_id FROM orders WHERE customer_id = 42;\n" +
		"SELECT count(*) FROM orders WHERE amount BETWEEN 1 AND 2;\n"
	if err := os.WriteFile(sqlPath, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return cmdImport([]string{"--live-trace", liveFixture, "--sql", sqlPath})
	})
	if !strings.Contains(out, "imported from file:workload.sql") {
		t.Errorf("import did not use the SQL file:\n%s", out)
	}
	if !strings.Contains(out, "2x") {
		t.Errorf("repeated statement should accumulate weight 2:\n%s", out)
	}
}

func TestCmdApplyDryRunOverTrace(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdApply([]string{"--live-trace", liveFixture, "--dry-run"})
	})
	for _, want := range []string{
		"connected: shopdb via replay",
		// The advisor restates the pre-existing region index; apply must
		// recognize it instead of re-creating it.
		"already on server: customers(region)",
		"applying (dry run)",
		"dry-run",
		"CREATE INDEX IF NOT EXISTS dbd_idx_",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("apply output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "applied:") {
		t.Errorf("dry run must not report applied steps:\n%s", out)
	}
}

func TestCmdLiveRecordRoundTrip(t *testing.T) {
	rerecorded := filepath.Join(t.TempDir(), "rerecorded.json")
	captureStdout(t, func() error {
		return cmdImport([]string{"--live-trace", liveFixture, "--live-record", rerecorded})
	})
	// The re-recorded trace must drive the same command again.
	out := captureStdout(t, func() error {
		return cmdImport([]string{"--live-trace", rerecorded})
	})
	if !strings.Contains(out, "4 templates imported") {
		t.Errorf("re-recorded trace did not replay:\n%s", out)
	}
}

func TestCmdLiveFlagValidation(t *testing.T) {
	if err := cmdImport([]string{}); err == nil || !strings.Contains(err.Error(), "--dsn") {
		t.Errorf("import with no source: err = %v", err)
	}
	if err := cmdApply([]string{"--dsn", "x", "--live-trace", "y"}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("both sources: err = %v", err)
	}
}
