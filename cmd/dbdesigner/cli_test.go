package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed (cmdGenerate/cmdInteractions write straight to os.Stdout).
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

func TestCmdGenerateSmoke(t *testing.T) {
	args := []string{"--size", "tiny", "--seed", "1"}
	out1 := captureStdout(t, func() error { return cmdGenerate(args) })
	out2 := captureStdout(t, func() error { return cmdGenerate(args) })
	if out1 != out2 {
		t.Fatalf("generate output not deterministic under fixed seed:\n%s\nvs\n%s", out1, out2)
	}
	for _, table := range []string{"photoobj", "specobj", "neighbors", "field"} {
		if !strings.Contains(out1, table) {
			t.Errorf("generate output missing table %q:\n%s", table, out1)
		}
	}
	if !strings.Contains(out1, "2000 rows") {
		t.Errorf("tiny photoobj should report 2000 rows:\n%s", out1)
	}
}

func TestCmdGenerateEmitWorkload(t *testing.T) {
	args := []string{"--size", "tiny", "--seed", "1", "--queries", "6", "--emit-workload"}
	out1 := captureStdout(t, func() error { return cmdGenerate(args) })
	out2 := captureStdout(t, func() error { return cmdGenerate(args) })
	if out1 != out2 {
		t.Fatal("emitted workload not deterministic under fixed seed")
	}
	if got := strings.Count(out1, "SELECT"); got != 6 {
		t.Errorf("emitted %d SELECTs, want 6:\n%s", got, out1)
	}
}

// TestCmdInteractionsOutputPinned pins `dbdesigner interactions --size
// tiny --seed 1` to its committed bytes: the rendering of Advice.Graph
// over the advised indexes.
func TestCmdInteractionsOutputPinned(t *testing.T) {
	const want = `interaction graph over 7 advised indexes (top 10 edges):
photoobj(fieldid)                        ~ photoobj(type,fieldid)                   doi=0.0650
photoobj(dec,objid,ra)                   ~ photoobj(ra)                             doi=0.0222

stable subsets (doi >= 0.05 connects):
  1: neighbors(distance,neighborobjid,objid)
  2: photoobj(dec,objid,ra)
  3: photoobj(psfmag_r,camcol,run)
  4: photoobj(ra)
  5: photoobj(fieldid), photoobj(type,fieldid)
  6: photoobj(type,psfmag_r)
`
	got := captureStdout(t, func() error { return cmdInteractions([]string{"--size", "tiny", "--seed", "1"}) })
	if got != want {
		t.Fatalf("interactions output moved:\n%s\nwant:\n%s", got, want)
	}
}

// benchArgs is a fast single-cell matrix for CLI tests.
func benchArgs(dir string, extra ...string) []string {
	base := []string{
		"--profile", "smoke",
		"--sizes", "tiny",
		"--seed", "1",
		"--workloads", "uniform",
		"--experiments", "parallel_scaling,size_model",
		"--queries", "8",
		"--out", dir,
		"-q",
	}
	return append(base, extra...)
}

func TestCmdBenchWritesValidJSON(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := cmdBench(benchArgs(dir, "--json"), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_smoke.json")
	res, err := bench.ReadResult(path)
	if err != nil {
		t.Fatalf("emitted file invalid: %v", err)
	}
	if res.SchemaVersion != bench.SchemaVersion || res.Label != "smoke" {
		t.Fatalf("unexpected header: %+v", res)
	}
	if len(res.Experiments) != 2 {
		t.Fatalf("got %d experiments, want 2", len(res.Experiments))
	}
	// --json must print the same document to stdout.
	if !strings.Contains(stdout.String(), `"schema_version": 2`) {
		t.Errorf("--json did not print the document:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "wrote ") {
		t.Errorf("missing write notice on stderr:\n%s", stderr.String())
	}
}

func TestCmdBenchStableAcrossRuns(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	var sink bytes.Buffer
	if err := cmdBench(benchArgs(dir1), &sink, &sink); err != nil {
		t.Fatal(err)
	}
	if err := cmdBench(benchArgs(dir2), &sink, &sink); err != nil {
		t.Fatal(err)
	}
	r1, err := bench.ReadResult(filepath.Join(dir1, "BENCH_smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := bench.ReadResult(filepath.Join(dir2, "BENCH_smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := r1.JSON()
	s2, _ := r2.JSON()
	if !bytes.Equal(s1, s2) {
		t.Fatalf("bench document not byte-stable:\n%s\nvs\n%s", s1, s2)
	}
}

func TestCmdBenchHumanTableAndBaseline(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := cmdBench(benchArgs(dir), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	table := stdout.String()
	if header, _, _ := strings.Cut(table, "\n"); header != "bench smoke (schema v2)" {
		t.Errorf("table header = %q, want label and schema only", header)
	}
	for _, want := range []string{"parallel_scaling", "size_model", "honest_vs_zero_x", "w16_sweep_exact"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	// Re-run against the just-written file as baseline: identical cells
	// must produce the no-drift notice on stderr and exit 0.
	stderr.Reset()
	baseline := filepath.Join(dir, "BENCH_smoke.json")
	if err := cmdBench(benchArgs(t.TempDir(), "--baseline", baseline), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "no quality drift") {
		t.Errorf("baseline self-comparison should report no quality drift:\n%s", stderr.String())
	}
}

// TestCmdBenchBaselineHardFail pins the exit-code contract: schema-version
// mismatches, baseline experiments or metrics missing from the current run,
// changed counts and quality drift beyond tolerance all fail the command;
// a cell only the current run has warns and exits 0.
func TestCmdBenchBaselineHardFail(t *testing.T) {
	dir := t.TempDir()
	var sink bytes.Buffer
	if err := cmdBench(benchArgs(dir), &sink, &sink); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_smoke.json")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]any
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatal(err)
	}

	rewrite := func(mutate func(map[string]any)) string {
		var copy map[string]any
		if err := json.Unmarshal(doc, &copy); err != nil {
			t.Fatal(err)
		}
		mutate(copy)
		b, err := json.Marshal(copy)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "BENCH_mut.json")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Coverage regression: the baseline knows an experiment the current run
	// does not produce → non-zero exit.
	wider := rewrite(func(m map[string]any) {
		xs := m["experiments"].([]any)
		extra := map[string]any{
			"name": "vanished", "size": "tiny", "workload": "uniform", "seed": float64(1),
			"counts": map[string]any{"n": float64(1)},
		}
		m["experiments"] = append(xs, extra)
	})
	var stderr bytes.Buffer
	err = cmdBench(benchArgs(t.TempDir(), "--baseline", wider), &sink, &stderr)
	if err == nil {
		t.Fatalf("missing baseline experiment did not fail the command; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "coverage regressed") {
		t.Errorf("stderr missing coverage error:\n%s", stderr.String())
	}

	// Schema mismatch → non-zero exit. The mutated document must bypass
	// ReadResult's own validation, so only the comparison can catch it:
	// bump both versions? No — ReadResult rejects foreign versions, which
	// is itself the hard failure; assert the command errors.
	older := rewrite(func(m map[string]any) { m["schema_version"] = float64(99) })
	if err := cmdBench(benchArgs(t.TempDir(), "--baseline", older), &sink, &sink); err == nil {
		t.Error("schema-version mismatch did not fail the command")
	}

	// A changed answer fails: quality drift beyond tolerance, a changed
	// count, or a metric the current run no longer emits.
	firstCell := func(m map[string]any, field string) map[string]any {
		for _, x := range m["experiments"].([]any) {
			if f, ok := x.(map[string]any)[field].(map[string]any); ok && len(f) > 0 {
				return f
			}
		}
		t.Fatalf("no cell with %s metrics", field)
		return nil
	}
	for name, tc := range map[string]struct {
		mutate func(map[string]any)
		want   string
	}{
		"quality drift": {func(m map[string]any) {
			q := firstCell(m, "quality")
			for k := range q {
				q[k] = q[k].(float64)*2 + 1
			}
		}, "drifted"},
		"changed count": {func(m map[string]any) {
			c := firstCell(m, "counts")
			for k := range c {
				c[k] = c[k].(float64) + 1
			}
		}, "changed"},
		"missing metric": {func(m map[string]any) {
			firstCell(m, "counts")["vanished"] = float64(1)
		}, "count vanished missing"},
	} {
		stderr.Reset()
		err := cmdBench(benchArgs(t.TempDir(), "--baseline", rewrite(tc.mutate)), &sink, &stderr)
		if err == nil {
			t.Errorf("%s did not fail the command; stderr:\n%s", name, stderr.String())
		}
		if !strings.Contains(stderr.String(), "ERROR") || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr missing ERROR naming %q:\n%s", name, tc.want, stderr.String())
		}
	}

	// New coverage is not a regression: a cell the baseline lacks warns.
	narrower := rewrite(func(m map[string]any) {
		xs := m["experiments"].([]any)
		m["experiments"] = xs[:len(xs)-1]
	})
	stderr.Reset()
	if err := cmdBench(benchArgs(t.TempDir(), "--baseline", narrower), &sink, &stderr); err != nil {
		t.Fatalf("a new cell must stay warn-only, got: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "WARN") || !strings.Contains(stderr.String(), "new experiment cell") {
		t.Errorf("expected a new-cell warning on stderr:\n%s", stderr.String())
	}
}

// TestCmdBenchBaselineUnreadableFails pins the exit contract for the
// baseline file itself: a missing, unreadable, or corrupt --baseline is an
// error path (non-zero exit via main's error handling), never a silently
// skipped comparison — and the bench document is still written first, so
// the trajectory artifact survives the failed gate.
func TestCmdBenchBaselineUnreadableFails(t *testing.T) {
	var sink bytes.Buffer

	// Missing file.
	dir := t.TempDir()
	err := cmdBench(benchArgs(dir, "--baseline", filepath.Join(dir, "nope.json")), &sink, &sink)
	if err == nil {
		t.Fatal("missing baseline file did not fail the command")
	}
	if !strings.Contains(err.Error(), "baseline") {
		t.Errorf("error does not name the baseline: %v", err)
	}
	if _, statErr := os.Stat(filepath.Join(dir, "BENCH_smoke.json")); statErr != nil {
		t.Errorf("bench document not written before the baseline failure: %v", statErr)
	}

	// Corrupt JSON.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdBench(benchArgs(t.TempDir(), "--baseline", bad), &sink, &sink); err == nil {
		t.Fatal("corrupt baseline file did not fail the command")
	}

	// Valid JSON that is not a bench document (fails validation).
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdBench(benchArgs(t.TempDir(), "--baseline", empty), &sink, &sink); err == nil {
		t.Fatal("non-bench baseline document did not fail the command")
	}
}

// TestCmdBenchPerBackend runs the suite under --backend calibrated: the
// document gets a distinguishable default label, names its backend, and can
// never be silently compared against a native baseline.
func TestCmdBenchPerBackend(t *testing.T) {
	dir := t.TempDir()
	var sink bytes.Buffer
	if err := cmdBench(benchArgs(dir), &sink, &sink); err != nil {
		t.Fatal(err)
	}
	if err := cmdBench(benchArgs(dir, "--backend", "calibrated"), &sink, &sink); err != nil {
		t.Fatal(err)
	}
	res, err := bench.ReadResult(filepath.Join(dir, "BENCH_smoke_calibrated.json"))
	if err != nil {
		t.Fatalf("calibrated document missing or invalid: %v", err)
	}
	if res.Backend != "calibrated" {
		t.Fatalf("document backend = %q", res.Backend)
	}

	var stderr bytes.Buffer
	err = cmdBench(benchArgs(t.TempDir(), "--backend", "calibrated",
		"--baseline", filepath.Join(dir, "BENCH_smoke.json")), &sink, &stderr)
	if err == nil {
		t.Fatalf("calibrated run compared against native baseline without failing; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "backend") {
		t.Errorf("stderr missing backend-mismatch error:\n%s", stderr.String())
	}

	if err := cmdBench(benchArgs(t.TempDir(), "--backend", "replay"), &sink, &sink); err == nil {
		t.Error("an unknown suite backend should be rejected")
	}
}

func TestCmdBenchRejectsBadSelections(t *testing.T) {
	var sink bytes.Buffer
	if err := cmdBench([]string{"--profile", "nope"}, &sink, &sink); err == nil {
		t.Error("unknown suite profile should error")
	}
	if err := cmdBench(benchArgs(t.TempDir(), "--experiments", "nope"), &sink, &sink); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := cmdBench(benchArgs(t.TempDir(), "--workloads", "nope"), &sink, &sink); err == nil {
		t.Error("unknown workload profile should error")
	}
}

// TestCmdServeSmoke boots the serve subcommand on an ephemeral port with
// the fabric flags set, drives a session create → add-index → evaluate →
// advise round trip over real HTTP, checks the operational endpoints
// (/healthz, /readyz, /metrics), and exercises the graceful-shutdown path
// a SIGINT would take.
func TestCmdServeSmoke(t *testing.T) {
	ctl := &serveControl{ready: make(chan string, 1), stop: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- runServe([]string{"--size", "tiny", "--seed", "1", "--addr", "127.0.0.1:0",
			"--max-sessions", "16", "--session-ttl", "5m", "--pool-size", "2",
			"--queue-depth", "8", "--tenant-quota", "8", "--workers", "2"}, ctl)
	}()
	var base string
	select {
	case addr := <-ctl.ready:
		base = "http://" + addr + "/api/v1"
		if got := ctl.d.Workers(); got != 2 {
			t.Errorf("--workers 2: sweep pool width = %d, want 2", got)
		}
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not come up in 30s")
	}

	post := func(path, body string, want int) map[string]any {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d\n%s", path, resp.StatusCode, want, data)
		}
		out := map[string]any{}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("POST %s: bad JSON: %v\n%s", path, err, data)
		}
		return out
	}

	created := post("/sessions", "{}", http.StatusCreated)
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("no session id in %v", created)
	}
	post("/sessions/"+id+"/indexes",
		`{"table": "photoobj", "columns": ["psfmag_r"]}`, http.StatusCreated)
	rep := post("/sessions/"+id+"/evaluate",
		`{"sql": ["SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"]}`, http.StatusOK)
	if rep["base_total"].(float64) <= rep["new_total"].(float64) {
		t.Fatalf("what-if index should help: %v", rep)
	}
	advice := post("/advise",
		`{"sql": ["SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"]}`, http.StatusOK)
	if _, ok := advice["ddl"].(string); !ok {
		t.Fatalf("advise missing ddl: %v", advice)
	}

	// Operational endpoints: liveness, readiness, and a metrics scrape
	// carrying the core families.
	root := strings.TrimSuffix(base, "/api/v1")
	get := func(path string, want int) string {
		t.Helper()
		resp, err := http.Get(root + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d\n%s", path, resp.StatusCode, want, data)
		}
		return string(data)
	}
	if body := get("/healthz", http.StatusOK); !strings.Contains(body, `"ok"`) {
		t.Fatalf("/healthz: %s", body)
	}
	if body := get("/readyz", http.StatusOK); !strings.Contains(body, `"ready"`) {
		t.Fatalf("/readyz: %s", body)
	}
	scrape := get("/metrics", http.StatusOK)
	for _, family := range []string{
		"dbdesigner_http_requests_total",
		"dbdesigner_http_request_duration_seconds",
		"dbdesigner_admission_queue_depth",
		"dbdesigner_admission_rejected_total",
		"dbdesigner_sessions_evicted_total",
		"dbdesigner_sessions_active",
	} {
		if !strings.Contains(scrape, "# TYPE "+family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}

	// Graceful shutdown: runServe must return cleanly once stopped.
	close(ctl.stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down in 15s")
	}

	// The port must no longer accept connections.
	if _, err := http.Get(base + "/schema"); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}

// TestCmdServeRejectsShardFlags pins that serve has no coordinator or worker
// mode left to start: --workers takes an integer only and --worker does not
// exist, so both die at flag parsing with a usage error.
func TestCmdServeRejectsShardFlags(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		t.Fatalf("serve %v parsed its flags and returned: %v", args, runServe(args, nil))
	}
	wantUsageExit(t, "TestCmdServeRejectsShardFlags", "serve", []string{"--size", "tiny", "--addr", "127.0.0.1:0"}, map[string]string{
		"--workers=http://127.0.0.1:1": "invalid value",
		"--worker":                     "flag provided but not defined: -worker",
	})
}

// TestCmdBenchRejectsTimingFlags pins that bench has no timing knob left:
// --repeat and --workers do not exist, so both die at flag parsing with a
// usage error. (`serve --workers N` is a different flag set and stays.)
func TestCmdBenchRejectsTimingFlags(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		t.Fatalf("bench %v parsed its flags and returned: %v", args, cmdBench(args, io.Discard, io.Discard))
	}
	wantUsageExit(t, "TestCmdBenchRejectsTimingFlags", "bench", nil, map[string]string{
		"--repeat=3":  "flag provided but not defined: -repeat",
		"--workers=2": "flag provided but not defined: -workers",
	})
}

// wantUsageExit runs `<sub> <base...> <flag>` for every flag in cases and
// requires exit status 2 with a usage error naming the case's message. The
// subcommands' flag sets exit the process on a parse failure, so each case
// runs in a re-executed copy of this test binary restricted to the calling
// test, which finds the subcommand's arguments after "--".
func wantUsageExit(t *testing.T, test, sub string, base []string, cases map[string]string) {
	t.Helper()
	for arg, want := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		args := append([]string{"-test.run=^" + test + "$", "--"}, append(base, arg)...)
		out, err := exec.CommandContext(ctx, os.Args[0], args...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: err = %v, want exit status 2\n%s", sub, arg, err, out)
		}
		if !strings.Contains(string(out), want) || !strings.Contains(string(out), "Usage of "+sub) {
			t.Errorf("%s %s: no usage error naming %q:\n%s", sub, arg, want, out)
		}
	}
}

func TestCmdBenchAssertGates(t *testing.T) {
	dir := t.TempDir()
	var sink, stderr bytes.Buffer
	// Holding assertions: presence plus a metric bound on a cell the tiny
	// run actually produces.
	if err := cmdBench(benchArgs(dir,
		"--assert", "parallel_scaling",
		"--assert", "size_model"), &sink, &stderr); err != nil {
		t.Fatalf("holding assertions failed: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "all 2 assertion(s) hold") {
		t.Errorf("missing assertion summary:\n%s", stderr.String())
	}

	// A missing experiment is a hard failure with a named culprit.
	err := cmdBench(benchArgs(t.TempDir(), "--assert", "design_space_width"), &sink, &sink)
	if err == nil || !strings.Contains(err.Error(), "no design_space_width cells") {
		t.Fatalf("missing-cell assertion: err = %v", err)
	}

	// A malformed expression fails loudly instead of being skipped.
	err = cmdBench(benchArgs(t.TempDir(), "--assert", "parallel_scaling:oops"), &sink, &sink)
	if err == nil || !strings.Contains(err.Error(), "needs metric=V") {
		t.Fatalf("malformed assertion: err = %v", err)
	}
}
