package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/designer"
)

// TestSessionContractFromRouteTable derives the session contract from the
// route table instead of from a hand-kept list of verbs: every route under
// /sessions/{id} — whatever it does with a live session — answers an unknown
// id, another tenant's id and a closed session with 404 session_not_found,
// an evicted session with 410 session_evicted, and (POST routes) a malformed
// body with 400 invalid_request. A route added to the table tomorrow is
// covered without touching this test.
func TestSessionContractFromRouteTable(t *testing.T) {
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	s := New(d, WithMaxSessions(2))
	t.Cleanup(func() {
		s.pool.Close()
		s.sm.Stop()
	})

	do := func(tenant, method, path, body string) (status int, code string, raw []byte) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if tenant != "" {
			req.Header.Set(tenantHeader, tenant)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var env errorEnvelopeJSON
		_ = json.Unmarshal(rec.Body.Bytes(), &env) // a success body has no envelope: code stays ""
		return rec.Code, env.Error.Code, rec.Body.Bytes()
	}
	create := func() string {
		status, _, raw := do("", "POST", "/api/v1/sessions", "")
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &created); status != http.StatusCreated || err != nil || created.ID == "" {
			t.Fatalf("create session: %d %s (%v)", status, raw, err)
		}
		return created.ID
	}

	evicted := create()
	live := create()
	closed := create() // the third session at a cap of two evicts the first
	if status, _, raw := do("", "DELETE", "/api/v1/sessions/"+closed, ""); status != http.StatusOK {
		t.Fatalf("close session: %d %s", status, raw)
	}

	cases := []struct {
		name, tenant, id string
		status           int
		code             string
	}{
		{"unknown id", "", "nope", http.StatusNotFound, codeSessionNotFound},
		{"another tenant's id", "intruder", live, http.StatusNotFound, codeSessionNotFound},
		{"closed session", "", closed, http.StatusNotFound, codeSessionNotFound},
		{"evicted session", "", evicted, http.StatusGone, codeSessionEvicted},
	}
	routes := 0
	for _, rt := range s.routeTable() {
		if !strings.Contains(rt.pattern, "/sessions/{id}") {
			continue
		}
		routes++
		body := ""
		if rt.method == "POST" {
			body = "{}"
		}
		for _, tc := range cases {
			path := strings.Replace(rt.pattern, "{id}", tc.id, 1)
			if status, code, _ := do(tc.tenant, rt.method, path, body); status != tc.status || code != tc.code {
				t.Errorf("%s %s, %s: %d %q, want %d %q", rt.method, rt.pattern, tc.name, status, code, tc.status, tc.code)
			}
		}
		if rt.method == "POST" {
			path := strings.Replace(rt.pattern, "{id}", live, 1)
			if status, code, _ := do("", "POST", path, "{not json"); status != http.StatusBadRequest || code != codeInvalidRequest {
				t.Errorf("POST %s, malformed body: %d %q, want 400 %q", rt.pattern, status, code, codeInvalidRequest)
			}
		}
	}
	if routes == 0 {
		t.Fatal("the route table has no /sessions/{id} route: the walk checked nothing")
	}
	// None of the probes — the intruder's DELETE included — disturbed the
	// live session.
	if status, _, raw := do("", "GET", "/api/v1/sessions/"+live, ""); status != http.StatusOK {
		t.Fatalf("live session after the walk: %d %s", status, raw)
	}
}
