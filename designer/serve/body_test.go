package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/designer"
)

// bodyStep is one request of a tenant's script, its path relative to the
// tenant's session.
type bodyStep struct {
	method, path string
	body         []byte
}

// TestReusedBodiesMatchFreshSessions holds the pooled request bodies to the
// rule that nothing reads a body after its verb has answered. Every released
// buffer is overwritten with '#' (ScribbleReleasedBodies), and two tenants
// run their scripts at once on one server: an index edit, evaluates of the
// held "sql" list (resolved against the session's snapshot), an edited list
// and the held one again, a session advise, readvises repeating it (empty
// body, then the same body resolved against the last advise's workload) and
// a new question, twice over. Every reply must equal, byte for byte, the
// reply a fresh session on its own server gives to the same script, asked
// serially beforehand; only the wall-clock fields are masked.
func TestReusedBodiesMatchFreshSessions(t *testing.T) {
	ScribbleReleasedBodies(t)
	f := newInlineFixture(t)
	gen, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.GenerateWorkload(5, 16)
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, w.Len())
	for i, q := range w.Queries() {
		texts[i] = q.SQL()
	}
	script := func(design string, held []string) []bodyStep {
		edited := append(append([]string(nil), held[1:]...), "SELECT objid FROM photoobj WHERE ra < 10")
		advise := []byte(`{"budget_pages":300,` + string(sqlBody(t, held[:8], true, ""))[1:])
		wider := []byte(`{"budget_pages":900,` + string(sqlBody(t, held[:8], false, " "))[1:])
		var steps []bodyStep
		for round := 0; round < 2; round++ {
			steps = append(steps,
				bodyStep{"POST", "/indexes", ixBody(design)},
				bodyStep{"POST", "/evaluate", sqlBody(t, held, true, "")},
				bodyStep{"POST", "/evaluate", sqlBody(t, held, false, "")},
				bodyStep{"POST", "/evaluate", sqlBody(t, edited, true, "")},
				bodyStep{"POST", "/evaluate", sqlBody(t, held, true, " ")},
				bodyStep{"POST", "/advise", advise},
				bodyStep{"POST", "/readvise", nil},
				bodyStep{"POST", "/readvise", advise},
				bodyStep{"POST", "/readvise", wider},
				bodyStep{"POST", "/evaluate", sqlBody(t, held, true, "")},
				bodyStep{"DELETE", "/indexes?key=photoobj(" + design + ")", nil},
			)
		}
		return steps
	}
	reversed := make([]string, len(texts))
	for i, s := range texts {
		reversed[len(texts)-1-i] = s
	}
	tenants := []string{"alpha", "beta"}
	scripts := [][]bodyStep{script("type,psfmag_r", texts), script("ra", reversed)}

	// run walks a script on a fresh session of s and returns its replies.
	run := func(s *Server, tenant string, steps []bodyStep) ([][]byte, error) {
		serve := func(method, path string, body []byte) (int, []byte) {
			req := httptest.NewRequest(method, path, bytes.NewReader(body))
			req.Header.Set(tenantHeader, tenant)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			return rec.Code, maskTimings.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":"*"`))
		}
		code, created := serve("POST", "/api/v1/sessions", nil)
		var session struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(created, &session); err != nil || code != http.StatusCreated {
			return nil, fmt.Errorf("tenant %s: session create answered %d %s", tenant, code, created)
		}
		var replies [][]byte
		for i, st := range steps {
			code, reply := serve(st.method, "/api/v1/sessions/"+session.ID+st.path, st.body)
			if code/100 != 2 {
				return nil, fmt.Errorf("tenant %s step %d (%s %s): %d %s", tenant, i, st.method, st.path, code, reply)
			}
			replies = append(replies, reply)
		}
		return replies, nil
	}

	want := make([][][]byte, len(tenants))
	for k, tenant := range tenants {
		if want[k], err = run(f.ref, tenant, scripts[k]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][][]byte, len(tenants))
	errs := make([]error, len(tenants))
	var wg sync.WaitGroup
	for k, tenant := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = run(f.srv, tenant, scripts[k])
		}()
	}
	wg.Wait()
	for k, tenant := range tenants {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		for i, st := range scripts[k] {
			if !bytes.Equal(got[k][i], want[k][i]) {
				t.Fatalf("tenant %s step %d (%s %s) answers\n%s\na fresh session\n%s", tenant, i, st.method, st.path, got[k][i], want[k][i])
			}
		}
	}
}
