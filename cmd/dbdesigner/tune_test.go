package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCmdOnlineBadWorkloadFile pins the scenario-3 error path: a missing
// or unparsable --workload file must fail the command cleanly, before any
// tuner exists — no panic, no half-initialized loop.
func TestCmdOnlineBadWorkloadFile(t *testing.T) {
	base := []string{"--size", "tiny", "--seed", "1", "--epoch", "5"}

	if err := cmdOnline(append(base, "--workload", filepath.Join(t.TempDir(), "nope.sql"))); err == nil {
		t.Fatal("missing --workload file did not fail the command")
	}

	bad := filepath.Join(t.TempDir(), "bad.sql")
	if err := os.WriteFile(bad, []byte("SELECT broken FROM nowhere;"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdOnline(append(base, "--workload", bad))
	if err == nil {
		t.Fatal("unparsable --workload file did not fail the command")
	}
	if !strings.Contains(err.Error(), "nowhere") {
		t.Errorf("error does not name the bad table: %v", err)
	}

	// The same guard holds for the autopilot form of the scenario.
	if err := runTune(append(base, "--workload", bad), nil); err == nil {
		t.Fatal("tune with unparsable --workload did not fail")
	}
}

// TestCmdTuneRefusesRegretCandidatesOverCap: the regret oracle enumerates
// 2^k subsets an epoch, so a --regret-candidates above its cap fails the
// command, naming the cap.
func TestCmdTuneRefusesRegretCandidatesOverCap(t *testing.T) {
	err := runTune([]string{"--size", "tiny", "--seed", "1", "--per-phase", "5", "--regret-candidates", "1000"}, nil)
	if err == nil || !strings.Contains(err.Error(), "at most 14") {
		t.Fatalf("tune --regret-candidates 1000: err = %v, want a refusal naming the cap", err)
	}
}

// TestCmdOnlineWorkloadFile drives scenario 3 from a SQL script instead of
// the generated drift stream.
func TestCmdOnlineWorkloadFile(t *testing.T) {
	script := filepath.Join(t.TempDir(), "w.sql")
	stmt := "SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14;\n"
	if err := os.WriteFile(script, []byte(strings.Repeat(stmt, 12)), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return cmdOnline([]string{"--size", "tiny", "--seed", "1", "--epoch", "4", "--workload", script})
	})
	if !strings.Contains(out, "processed 12 queries") {
		t.Fatalf("weighted script not fully observed:\n%s", out)
	}
	if !strings.Contains(out, "epoch  queries") {
		t.Fatalf("missing epoch table:\n%s", out)
	}
}

// TestCmdTuneSmoke runs the local autopilot loop twice over the same state
// file: the first run journals decisions, tracks regret, and saves; the
// second resumes instead of relearning.
func TestCmdTuneSmoke(t *testing.T) {
	state := filepath.Join(t.TempDir(), "autopilot.json")
	args := []string{"--size", "tiny", "--seed", "1", "--epoch", "10",
		"--per-phase", "30", "--probation", "2", "--state", state}

	out := captureStdout(t, func() error { return runTune(args, nil) })
	if !strings.Contains(out, "DECIDE") {
		t.Fatalf("no decisions journaled:\n%s", out)
	}
	if !strings.Contains(out, "regret") {
		t.Fatalf("no regret trajectory:\n%s", out)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("state not saved: %v", err)
	}

	out2 := captureStdout(t, func() error { return runTune(args, nil) })
	if !strings.Contains(out2, "resumed from "+state) {
		t.Fatalf("second run did not resume:\n%s", out2)
	}
}

// TestCmdTuneServerSmoke boots `tune --server` on an ephemeral port: the
// autopilot is already supervising the tuner slot, observations flow
// through it over HTTP, and the SIGTERM-equivalent stop persists the
// state file.
func TestCmdTuneServerSmoke(t *testing.T) {
	state := filepath.Join(t.TempDir(), "autopilot.json")
	ctl := &serveControl{ready: make(chan string, 1), stop: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- runTune([]string{"--size", "tiny", "--seed", "1", "--epoch", "4",
			"--probation", "2", "--state", state, "--server", "--addr", "127.0.0.1:0"}, ctl)
	}()
	var base string
	select {
	case addr := <-ctl.ready:
		base = "http://" + addr + "/api/v1"
	case err := <-done:
		t.Fatalf("tune --server exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("tune --server did not come up in 30s")
	}

	get := func(path string, want int) map[string]any {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d\n%s", path, resp.StatusCode, want, data)
		}
		out := map[string]any{}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, data)
		}
		return out
	}

	status := get("/tuner/status", http.StatusOK)
	if status["autopilot"] != true {
		t.Fatalf("server did not come up with the autopilot active: %v", status)
	}
	id := status["id"].(string)

	observe := `{"sql": ["SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"]}`
	for i := 0; i < 10; i++ {
		resp, err := http.Post(base+"/tuner/observe", "application/json", strings.NewReader(observe))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe: status %d", resp.StatusCode)
		}
	}
	snap := get("/tuners/"+id+"/autopilot", http.StatusOK)
	if snap["status"].(map[string]any)["epoch"].(float64) == 0 {
		t.Fatalf("no epochs completed over HTTP: %v", snap)
	}

	close(ctl.stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("tune --server shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("tune --server did not shut down in 15s")
	}
	// Graceful shutdown must have persisted the loop's state.
	data, err := os.ReadFile(state)
	if err != nil {
		t.Fatalf("state not saved on shutdown: %v", err)
	}
	if !strings.Contains(string(data), `"tuner"`) {
		t.Fatalf("state file does not look like an autopilot snapshot:\n%.200s", data)
	}
}
