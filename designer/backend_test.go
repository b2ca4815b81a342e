package designer_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/designer"
)

const probeSQL = "SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"

// evaluateProbe opens a session, adds a selective index, and evaluates the
// probe query, returning the report's new total.
func evaluateProbe(t *testing.T, d *designer.Designer, opts designer.SessionOptions) float64 {
	t.Helper()
	s, err := d.NewDesignSessionWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddIndex("photoobj", "psfmag_r"); err != nil {
		t.Fatal(err)
	}
	w, err := d.WorkloadFromSQL([]string{probeSQL})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Evaluate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewTotal >= rep.BaseTotal {
		t.Fatalf("index should help the range scan: %+v", rep)
	}
	return rep.NewTotal
}

// TestOpenWithBackend checks backend selection at open time: Describe
// reports the active backend, and a calibrated designer prices index plans
// differently from a native one.
func TestOpenWithBackend(t *testing.T) {
	native, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	if got := native.Describe().Backend.Kind; got != "native" {
		t.Fatalf("default backend = %q", got)
	}
	calib, err := designer.OpenSDSS("tiny", 41,
		designer.WithBackend(designer.BackendSpec{Kind: designer.BackendCalibrated}))
	if err != nil {
		t.Fatal(err)
	}
	info := calib.Describe().Backend
	if info.Kind != "calibrated" || info.Description == "" {
		t.Fatalf("calibrated Describe = %+v", info)
	}

	nc := evaluateProbe(t, native, designer.SessionOptions{})
	cc := evaluateProbe(t, calib, designer.SessionOptions{})
	if nc == cc {
		t.Fatalf("calibrated designer returned native costs (%v)", nc)
	}
}

// TestPerSessionBackend checks SessionOptions.Backend: a calibrated
// session on a native designer prices differently, reports its backend,
// and leaves the designer untouched.
func TestPerSessionBackend(t *testing.T) {
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	nc := evaluateProbe(t, d, designer.SessionOptions{})
	cc := evaluateProbe(t, d, designer.SessionOptions{
		Backend: designer.BackendSpec{Kind: designer.BackendCalibrated},
	})
	if nc == cc {
		t.Fatalf("per-session calibrated backend returned native costs (%v)", nc)
	}
	s, err := d.NewDesignSessionWith(designer.SessionOptions{
		Backend: designer.BackendSpec{Kind: designer.BackendCalibrated},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Backend().Kind; got != "calibrated" {
		t.Fatalf("session backend = %q", got)
	}
	if got := d.Describe().Backend.Kind; got != "native" {
		t.Fatalf("session backend leaked into the designer: %q", got)
	}
	if _, err := d.NewDesignSessionWith(designer.SessionOptions{
		Backend: designer.BackendSpec{Kind: "voodoo"},
	}); err == nil {
		t.Fatal("unknown session backend accepted")
	}
}

// TestExplicitNativeSessionOnCalibratedDesigner pins the inherit-vs-choose
// semantics: an empty spec inherits the designer's backend, while an
// explicit "native" pins a native backend even on a calibrated designer.
func TestExplicitNativeSessionOnCalibratedDesigner(t *testing.T) {
	calib, err := designer.OpenSDSS("tiny", 41,
		designer.WithBackend(designer.BackendSpec{Kind: designer.BackendCalibrated}))
	if err != nil {
		t.Fatal(err)
	}
	inherited, err := calib.NewDesignSessionWith(designer.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := inherited.Backend().Kind; got != "calibrated" {
		t.Fatalf("zero spec should inherit the designer's backend, got %q", got)
	}
	pinned, err := calib.NewDesignSessionWith(designer.SessionOptions{
		Backend: designer.BackendSpec{Kind: designer.BackendNative},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pinned.Backend().Kind; got != "native" {
		t.Fatalf("explicit native spec was overridden by the designer's backend: %q", got)
	}

	ic := evaluateProbe(t, calib, designer.SessionOptions{})
	nc := evaluateProbe(t, calib, designer.SessionOptions{
		Backend: designer.BackendSpec{Kind: designer.BackendNative},
	})
	if ic == nc {
		t.Fatalf("explicit native session priced like the calibrated designer (%v)", ic)
	}
}

// TestMismatchedBackendParamsRejected: parameters the selected kind would
// ignore fail loudly instead of silently running a different cost model, at
// open time and per session alike.
func TestMismatchedBackendParamsRejected(t *testing.T) {
	cal := filepath.Join(t.TempDir(), "cal.json")
	if err := os.WriteFile(cal, []byte(`{"name":"ok","random_page_cost":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	const liveTrace = "testdata/live_shopdb.json"
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		what string
		spec designer.BackendSpec
	}{
		// Calibration file without --backend calibrated (kind defaults native).
		{"calibration file on a native backend", designer.BackendSpec{CalibrationFile: cal}},
		// Live parameters on a kind that never connects.
		{"DSN on a calibrated backend", designer.BackendSpec{Kind: designer.BackendCalibrated, DSN: "postgres://x@y/z"}},
		{"DSN with no kind", designer.BackendSpec{DSN: "postgres://x@y/z"}},
		{"live trace on a native backend", designer.BackendSpec{Kind: designer.BackendNative, LiveTraceFile: liveTrace}},
		// The live backend fits its own constants.
		{"calibration file on a live backend", designer.BackendSpec{Kind: designer.BackendLive, LiveTraceFile: liveTrace, CalibrationFile: cal}},
		{"inline calibration on a live backend", designer.BackendSpec{Kind: designer.BackendLive, LiveTraceFile: liveTrace,
			Calibration: &designer.CalibrationParams{RandomPageCost: 2}}},
	} {
		if _, err := designer.OpenSDSS("tiny", 41, designer.WithBackend(bad.spec)); err == nil {
			t.Errorf("OpenSDSS: %s accepted", bad.what)
		}
		if _, err := d.NewDesignSessionWith(designer.SessionOptions{Backend: bad.spec}); err == nil {
			t.Errorf("NewDesignSessionWith: %s accepted", bad.what)
		}
	}
}

// TestWithRecordingNeedsALiveServer: recording captures a live server's
// wire traffic, so a designer over a generated or DDL-defined store refuses
// the option instead of ignoring it.
func TestWithRecordingNeedsALiveServer(t *testing.T) {
	const ddl = "CREATE TABLE t (a BIGINT, b DOUBLE, PRIMARY KEY (a));"
	if _, err := designer.NewFromDDL(ddl); err != nil {
		t.Fatal(err)
	}
	for door, open := range map[string]func() (*designer.Designer, error){
		"OpenSDSS":   func() (*designer.Designer, error) { return designer.OpenSDSS("tiny", 41, designer.WithRecording()) },
		"NewFromDDL": func() (*designer.Designer, error) { return designer.NewFromDDL(ddl, designer.WithRecording()) },
	} {
		if _, err := open(); err == nil || !strings.Contains(err.Error(), "WithRecording") {
			t.Errorf("%s with WithRecording: err = %v, want a refusal naming the option", door, err)
		}
	}
}

// TestOpenRejectsBadBackendSpecs pins the open-time validation surface.
func TestOpenRejectsBadBackendSpecs(t *testing.T) {
	// An unknown kind — "replay" included, a kind that no longer exists —
	// is refused with the facade's own list, which has "live".
	for _, kind := range []string{"voodoo", "replay"} {
		_, err := designer.OpenSDSS("tiny", 41, designer.WithBackend(designer.BackendSpec{Kind: kind}))
		if err == nil {
			t.Errorf("backend kind %q accepted", kind)
		} else if !strings.Contains(err.Error(), "[native calibrated live]") {
			t.Errorf("backend kind %q: error %q does not list the facade's kinds", kind, err)
		}
	}
	bad := filepath.Join(t.TempDir(), "cal.json")
	if err := os.WriteFile(bad, []byte(`{"seq_page_cost": -4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := designer.OpenSDSS("tiny", 41,
		designer.WithBackend(designer.BackendSpec{Kind: designer.BackendCalibrated, CalibrationFile: bad})); err == nil {
		t.Error("invalid calibration file accepted")
	}
}
