package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	kind string
	data string
}

// sseCollector tails an SSE stream in the background, accumulating parsed
// events until the test's context ends.
type sseCollector struct {
	mu     sync.Mutex
	events []sseEvent
	cancel context.CancelFunc
	done   chan struct{}
}

func collectSSE(t *testing.T, url string) *sseCollector {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		t.Fatalf("content-type = %q", ct)
	}
	c := &sseCollector{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var kind string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				c.mu.Lock()
				c.events = append(c.events, sseEvent{kind: kind, data: strings.TrimPrefix(line, "data: ")})
				c.mu.Unlock()
			}
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-c.done
	})
	return c
}

// decisions returns the seq fields of the decision events seen so far, in
// arrival order.
func (c *sseCollector) decisions(t *testing.T) []int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var seqs []int
	for _, ev := range c.events {
		if ev.kind != "decision" {
			continue
		}
		var d struct {
			Seq int `json:"seq"`
		}
		if err := json.Unmarshal([]byte(ev.data), &d); err != nil {
			t.Fatalf("bad decision frame %q: %v", ev.data, err)
		}
		seqs = append(seqs, d.Seq)
	}
	return seqs
}

// waitFor polls cond every 50ms until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAutopilotRefusesClientStatePath pins that a client cannot choose a
// file on the server: a start body naming state_path — a fresh path, an
// empty one or null — answers 400 invalid_request and starts nothing, so
// the stop that follows has nothing to persist and the file never appears.
func TestAutopilotRefusesClientStatePath(t *testing.T) {
	base := start(t)
	created := call(t, "POST", base+"/tuner", map[string]any{"epoch_length": 4}, http.StatusCreated)
	apURL := base + "/tuners/" + created["id"].(string) + "/autopilot"
	path := filepath.Join(t.TempDir(), "chosen-by-client.json")
	quoted, _ := json.Marshal(path)
	for _, body := range []string{
		`{"state_path":` + string(quoted) + `}`,
		`{"probation_epochs":2,"state_path":` + string(quoted) + `}`,
		`{"state_path":""}`,
		`{"state_path":null}`,
	} {
		if got, code := envelopeCall(t, "POST", apURL, body); got != http.StatusBadRequest || code != "invalid_request" {
			t.Errorf("start with %s: %d %q, want 400 invalid_request", body, got, code)
		}
		if got, code := envelopeCall(t, "DELETE", apURL, ""); got != http.StatusNotFound || code != "autopilot_not_active" {
			t.Errorf("stop after %s: %d %q, want 404 autopilot_not_active", body, got, code)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a client-named state file exists: %v", err)
	}
	// The route itself still works without the field.
	call(t, "POST", apURL, map[string]any{"probation_epochs": 2}, http.StatusCreated)
}

// TestAutopilotRefusesRegretCandidatesOverCap: the regret oracle
// enumerates 2^k subsets every epoch under the tuner lock, so a start body
// asking for more candidates than the cap answers 400 invalid_request and
// starts nothing.
func TestAutopilotRefusesRegretCandidatesOverCap(t *testing.T) {
	base := start(t)
	created := call(t, "POST", base+"/tuner", map[string]any{"epoch_length": 4}, http.StatusCreated)
	apURL := base + "/tuners/" + created["id"].(string) + "/autopilot"
	if got, code := envelopeCall(t, "POST", apURL, `{"regret_candidates":1000}`); got != http.StatusBadRequest || code != "invalid_request" {
		t.Fatalf("start with regret_candidates 1000: %d %q, want 400 invalid_request", got, code)
	}
	if got, code := envelopeCall(t, "GET", apURL, ""); got != http.StatusNotFound || code != "autopilot_not_active" {
		t.Fatalf("status after the refused start: %d %q, want 404 autopilot_not_active", got, code)
	}
	call(t, "POST", apURL, map[string]any{"regret_candidates": 14}, http.StatusCreated)
}

// TestAutopilotLifecycleOverHTTP walks the full surface: start on the live
// tuner, observe through the closed loop, read the snapshot and metrics,
// reject a double start, stop, and answer 404 after.
func TestAutopilotLifecycleOverHTTP(t *testing.T) {
	base := start(t)
	created := call(t, "POST", base+"/tuner", map[string]any{"epoch_length": 4}, http.StatusCreated)
	id := created["id"].(string)
	apURL := base + "/tuners/" + id + "/autopilot"

	// Status and stop before start: structured 404.
	if got, code := envelopeCall(t, "GET", apURL, ""); got != http.StatusNotFound || code != "autopilot_not_active" {
		t.Fatalf("status before start: %d %q", got, code)
	}
	if got, code := envelopeCall(t, "DELETE", apURL, ""); got != http.StatusNotFound || code != "autopilot_not_active" {
		t.Fatalf("stop before start: %d %q", got, code)
	}

	call(t, "POST", apURL, map[string]any{"probation_epochs": 2, "build_budget_pages": 256}, http.StatusCreated)
	if got, code := envelopeCall(t, "POST", apURL, "{}"); got != http.StatusConflict || code != "autopilot_active" {
		t.Fatalf("double start: %d %q", got, code)
	}

	// Drive enough epochs for the loop to adopt, build, and measure.
	for i := 0; i < 10; i++ {
		call(t, "POST", base+"/tuner/observe",
			map[string]any{"sql": []string{testSQL, testSQL}}, http.StatusOK)
	}

	snap := call(t, "GET", apURL, nil, http.StatusOK)
	if snap["tuner_id"] != id {
		t.Fatalf("tuner_id = %v, want %s", snap["tuner_id"], id)
	}
	st := snap["status"].(map[string]any)
	if st["epoch"].(float64) == 0 {
		t.Fatalf("no epochs completed: %v", st)
	}
	if st["decisions"].(float64) == 0 {
		t.Fatalf("no decisions journaled: %v", st)
	}
	if _, ok := snap["regret"].([]any); !ok {
		t.Fatalf("regret missing: %v", snap)
	}
	ts := call(t, "GET", base+"/tuner/status", nil, http.StatusOK)
	if ts["autopilot"] != true || ts["id"] != id {
		t.Fatalf("tuner status should flag the autopilot: %v", ts)
	}

	// The metric families mirror the loop's counters.
	req, err := http.NewRequest("GET", strings.TrimSuffix(base, "/api/v1")+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"dbdesigner_autopilot_active 1",
		"dbdesigner_autopilot_epoch",
		"dbdesigner_autopilot_regret_pct",
		"dbdesigner_autopilot_builds_completed_total",
		"dbdesigner_autopilot_rollbacks_total",
		"dbdesigner_autopilot_build_pages_total",
		`dbdesigner_autopilot_decisions_total{kind="adopt"}`,
		`dbdesigner_autopilot_pending{stage="build"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	stopped := call(t, "DELETE", apURL, nil, http.StatusOK)
	if stopped["stopped"] != true {
		t.Fatalf("stop = %v", stopped)
	}
	if got, code := envelopeCall(t, "GET", apURL, ""); got != http.StatusNotFound || code != "autopilot_not_active" {
		t.Fatalf("status after stop: %d %q", got, code)
	}
	// The supervisor owned the learning state: observing afterwards is a
	// client error until a fresh tuner is created.
	if got, code := envelopeCall(t, "POST", base+"/tuner/observe",
		`{"sql":["SELECT objid FROM photoobj"]}`); got != http.StatusNotFound || code != "tuner_not_configured" {
		t.Fatalf("observe after stop: %d %q", got, code)
	}
}

// TestAutopilotStreamDeliversDecisionsInOrder is the push path: the SSE
// stream must deliver the decision journal in seq order, and a tuner
// replacement mid-stream must reset the cursor so the successor's journal
// arrives from its first decision instead of being skipped.
func TestAutopilotStreamDeliversDecisionsInOrder(t *testing.T) {
	base := start(t)
	created := call(t, "POST", base+"/tuner", map[string]any{"epoch_length": 4}, http.StatusCreated)
	id := created["id"].(string)
	call(t, "POST", base+"/tuners/"+id+"/autopilot",
		map[string]any{"probation_epochs": 2, "build_budget_pages": 256}, http.StatusCreated)

	c := collectSSE(t, base+"/tuner/stream")

	for i := 0; i < 8; i++ {
		call(t, "POST", base+"/tuner/observe",
			map[string]any{"sql": []string{testSQL, testSQL}}, http.StatusOK)
	}
	var firstRun []int
	waitFor(t, 5*time.Second, "decision frames from the first autopilot", func() bool {
		firstRun = c.decisions(t)
		return len(firstRun) > 0
	})
	journal := call(t, "GET", base+"/tuners/"+id+"/autopilot", nil, http.StatusOK)
	wantDecisions := int(journal["status"].(map[string]any)["decisions"].(float64))
	waitFor(t, 5*time.Second, "the full journal on the stream", func() bool {
		firstRun = c.decisions(t)
		return len(firstRun) >= wantDecisions
	})
	for i, seq := range firstRun {
		if seq != i+1 {
			t.Fatalf("decision frames out of order: %v", firstRun)
		}
	}

	// Replace the tuner mid-stream; the successor's autopilot journal must
	// arrive from seq 1 (a cursor carried over would skip it entirely).
	created2 := call(t, "POST", base+"/tuner", map[string]any{"epoch_length": 4}, http.StatusCreated)
	id2 := created2["id"].(string)
	if id2 == id {
		t.Fatalf("tuner replacement reused id %s", id)
	}
	call(t, "POST", base+"/tuners/"+id2+"/autopilot",
		map[string]any{"probation_epochs": 2, "build_budget_pages": 256}, http.StatusCreated)
	for i := 0; i < 8; i++ {
		call(t, "POST", base+"/tuner/observe",
			map[string]any{"sql": []string{testSQL, testSQL}}, http.StatusOK)
	}
	waitFor(t, 5*time.Second, "decision frames from the replacement autopilot", func() bool {
		seqs := c.decisions(t)
		return len(seqs) > len(firstRun) && seqs[len(firstRun)] == 1
	})
	seqs := c.decisions(t)
	for i, seq := range seqs[len(firstRun):] {
		if seq != i+1 {
			t.Fatalf("replacement journal out of order after reset: %v", seqs)
		}
	}
}

// TestAutopilotStaleTunerID pins the id discipline: autopilot routes
// naming a tuner that never existed, or one that has since been replaced,
// answer the structured 404 — never act on the wrong tuner.
func TestAutopilotStaleTunerID(t *testing.T) {
	base := start(t)

	// No tuner has ever existed.
	if got, code := envelopeCall(t, "POST", base+"/tuners/t1/autopilot", "{}"); got != http.StatusNotFound || code != "tuner_not_configured" {
		t.Fatalf("start with no tuner: %d %q", got, code)
	}

	created := call(t, "POST", base+"/tuner", map[string]any{"epoch_length": 4}, http.StatusCreated)
	id1 := created["id"].(string)
	created2 := call(t, "POST", base+"/tuner", map[string]any{"epoch_length": 4}, http.StatusCreated)
	id2 := created2["id"].(string)

	// The replaced tuner's id is stale on every method.
	for _, method := range []string{"POST", "GET", "DELETE"} {
		body := ""
		if method == "POST" {
			body = "{}"
		}
		if got, code := envelopeCall(t, method, base+"/tuners/"+id1+"/autopilot", body); got != http.StatusNotFound || code != "tuner_not_configured" {
			t.Fatalf("%s with stale id %s: %d %q", method, id1, got, code)
		}
	}

	// The live id works.
	call(t, "POST", base+"/tuners/"+id2+"/autopilot", map[string]any{"probation_epochs": 2}, http.StatusCreated)
	call(t, "GET", base+"/tuners/"+id2+"/autopilot", nil, http.StatusOK)
}

// TestAutopilotRestartOnSameTuner pins /tuner/status across an autopilot
// stop and restart on one tuner id: the slot's reading says what the slot
// holds. Stopped, it is neither active nor supervised (and observing is a
// 404); started again, it is both, and observing works.
func TestAutopilotRestartOnSameTuner(t *testing.T) {
	base := start(t)
	id := call(t, "POST", base+"/tuner", map[string]any{"epoch_length": 4}, http.StatusCreated)["id"].(string)
	apURL := base + "/tuners/" + id + "/autopilot"
	flags := func() (active, autopilot any) {
		st := call(t, "GET", base+"/tuner/status", nil, http.StatusOK)
		if st["id"] != id {
			t.Fatalf("status id = %v, want %s: autopilot start/stop must not mint a tuner generation", st["id"], id)
		}
		return st["active"], st["autopilot"]
	}

	call(t, "POST", apURL, nil, http.StatusCreated)
	call(t, "DELETE", apURL, nil, http.StatusOK)
	if active, ap := flags(); active != false || ap != false {
		t.Fatalf("after stop: active=%v autopilot=%v, want false false", active, ap)
	}

	call(t, "POST", apURL, nil, http.StatusCreated)
	if active, ap := flags(); active != true || ap != true {
		t.Fatalf("after restart: active=%v autopilot=%v, want true true", active, ap)
	}
	call(t, "POST", base+"/tuner/observe", map[string]any{"sql": []string{testSQL}}, http.StatusOK)
}

// TestFreshTunerReportsMaterializedDesign: a tuner seated over a design that
// already holds an index lists it in /tuner/status from the start, not only
// once its first observation happens to refresh the reading.
func TestFreshTunerReportsMaterializedDesign(t *testing.T) {
	base := start(t)
	call(t, "POST", base+"/materialize", map[string]any{
		"indexes": []map[string]any{{"table": "photoobj", "columns": []string{"ra"}}},
	}, http.StatusOK)
	call(t, "POST", base+"/tuner", nil, http.StatusCreated)

	want := []any{"photoobj(ra)"}
	current := func() any { return call(t, "GET", base+"/tuner/status", nil, http.StatusOK)["current"] }
	if got := current(); !reflect.DeepEqual(got, want) {
		t.Fatalf("current before any observation = %v, want %v", got, want)
	}
	call(t, "POST", base+"/tuner/observe", map[string]any{"sql": []string{testSQL}}, http.StatusOK)
	if got := current(); !reflect.DeepEqual(got, want) {
		t.Fatalf("current after one observation = %v, want %v", got, want)
	}
}

// TestAutopilotRoutesActOnTheAddressedTuner hammers POST /tuner against
// autopilot starts and stops addressed to whatever tuner /tuner/status last
// named. A request whose tuner is replaced under it must answer the stale-id
// 404; one that is answered 2xx acted on the tuner in its path, and says so.
// Run under -race (ci.yml: race-soak).
func TestAutopilotRoutesActOnTheAddressedTuner(t *testing.T) {
	base := start(t)
	do := func(method, url, body string) (int, map[string]any) {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	do("POST", base+"/tuner", `{"epoch_length": 4}`)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_, st := do("GET", base+"/tuner/status", "")
				id, _ := st["id"].(string)
				url := base + "/tuners/" + id + "/autopilot"
				for _, method := range []string{"POST", "DELETE"} {
					code, body := do(method, url, "{}")
					if got, ok := body["tuner_id"]; code/100 == 2 && ok && got != id {
						t.Errorf("%s %s answered %d for tuner %v", method, url, code, got)
					}
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		if code, _ := do("POST", base+"/tuner", `{"epoch_length": 4}`); code != http.StatusCreated {
			t.Errorf("reseat %d: status %d", i, code)
		}
	}
	close(done)
	wg.Wait()
}
