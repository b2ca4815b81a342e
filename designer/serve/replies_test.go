package serve

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/designer"
)

var updateReplies = flag.Bool("update-replies", false,
	"rewrite testdata/replies.golden from the current server (only for an intentional reply change)")

// repliesScript is the fixed request script TestRepliesArePinned drives: every
// route's success and failure paths, a tenant at its quota of two, an LRU
// eviction at a cap of three sessions, and a tuner → autopilot → observe →
// stop lifecycle, with a /metrics scrape cold, mid-autopilot and at the end.
// Each step is {tenant, method, path, body}; the steps run in order against
// one server, so later answers depend on earlier ones.
var repliesScript = [][4]string{
	{"", "GET", "/healthz", ""},
	{"", "GET", "/readyz", ""},
	{"", "GET", "/metrics", ""},
	{"", "GET", "/api/v1/schema", ""},
	{"", "GET", "/api/v1/stats", ""},
	{"", "PUT", "/api/v1/sessions", ""},
	{"", "GET", "/api/v1/nope", ""},

	// Sessions: create, quota, list, detail.
	{"", "POST", "/api/v1/sessions", `{"oops":`},
	{"", "POST", "/api/v1/sessions", `{"backend":"voodoo"}`},
	{"", "POST", "/api/v1/sessions", `{"dsn":"postgres://x"}`},
	{"", "POST", "/api/v1/sessions", `{"backend":"replay"}`},
	{"", "POST", "/api/v1/sessions", ""},
	{"", "POST", "/api/v1/sessions", `{"backend":"calibrated"}`},
	{"", "POST", "/api/v1/sessions", ""},
	{"", "GET", "/api/v1/sessions", ""},
	{"", "GET", "/api/v1/sessions?limit=1", ""},
	{"", "GET", "/api/v1/sessions?limit=0", ""},
	{"", "GET", "/api/v1/sessions?cursor=@@@", ""},
	{"", "GET", "/api/v1/sessions?tenant=acme", ""},
	{"", "GET", "/api/v1/sessions/s1", ""},
	{"acme", "GET", "/api/v1/sessions/s1", ""},
	{"", "GET", "/api/v1/sessions/nope", ""},

	// Design edits.
	{"", "POST", "/api/v1/sessions/s1/indexes", `{"table":"photoobj","columns":["type","psfmag_r"]}`},
	{"", "POST", "/api/v1/sessions/s1/indexes", `{"table":"photoobj","columns":["ra"],"include":["dec"]}`},
	{"", "POST", "/api/v1/sessions/s1/indexes", `{"table":"photoobj","columns":["type"],"aggs":["count(*)"]}`},
	{"", "POST", "/api/v1/sessions/s1/indexes", `{"table":"photoobj","columns":["ra"],"include":["dec"],"aggs":["count(*)"]}`},
	{"", "POST", "/api/v1/sessions/s1/indexes", `{"table":"nosuch","columns":["x"]}`},
	{"", "POST", "/api/v1/sessions/s1/indexes", ""},
	{"", "POST", "/api/v1/sessions/s1/indexes", `{"table":"photoobj","columns":["ra"]} trailing`},
	{"", "DELETE", "/api/v1/sessions/s1/indexes", ""},
	{"", "DELETE", "/api/v1/sessions/s1/indexes?key=photoobj(nope)", ""},
	{"", "DELETE", "/api/v1/sessions/s1/indexes?key=photoobj(type,psfmag_r)", ""},
	{"", "POST", "/api/v1/sessions/s1/partitions/vertical", `{"table":"nosuch","fragments":[["x"]]}`},
	{"", "POST", "/api/v1/sessions/s1/partitions/vertical", `{"table":"photoobj","fragments":[["ra"]]}`},
	{"", "POST", "/api/v1/sessions/s1/partitions/horizontal", `{"table":"photoobj","column":"ra","fragments":1}`},
	{"", "POST", "/api/v1/sessions/s1/partitions/horizontal", `{"table":"photoobj","column":"ra","fragments":2}`},
	{"", "GET", "/api/v1/sessions/s1", ""},

	// Evaluate and explain.
	{"", "POST", "/api/v1/sessions/s1/evaluate", `{"sql":["SELECT psfmag_r FROM photoobj WHERE type = 6 AND psfmag_r < 14"]}`},
	{"", "POST", "/api/v1/sessions/s1/evaluate", `{"queries":4,"seed":3}`},
	{"", "POST", "/api/v1/sessions/s1/evaluate", `{"queries":10001}`},
	{"", "POST", "/api/v1/sessions/s1/evaluate", `{"sql":["SELECT broken FROM nowhere"]}`},
	{"", "POST", "/api/v1/sessions/s1/evaluate", `{"oops":`},
	{"", "POST", "/api/v1/sessions/s1/explain", `{"sql":"SELECT ra FROM photoobj WHERE ra < 10"}`},
	{"", "POST", "/api/v1/sessions/s1/explain", `{}`},
	{"", "POST", "/api/v1/sessions/s1/explain", `{"sql":"SELECT broken FROM nowhere"}`},

	// Session advise and readvise.
	{"", "POST", "/api/v1/sessions/s1/readvise", ""},
	{"", "POST", "/api/v1/sessions/s1/advise", `{"queries":8,"budget_pages":400,"interactions":true}`},
	{"", "POST", "/api/v1/sessions/s1/readvise", ""},
	{"", "POST", "/api/v1/sessions/s1/readvise", `{"queries":8,"budget_pages":200,"interactions":true}`},
	{"", "POST", "/api/v1/sessions/s1/advise", `{"queries":10001}`},
	{"", "POST", "/api/v1/sessions/s2/evaluate", `{"sql":["SELECT psfmag_r FROM photoobj WHERE type = 6 AND psfmag_r < 14"]}`},

	// Stateless advise and materialize.
	{"", "POST", "/api/v1/advise", `{"queries":8,"partitions":true}`},
	{"", "POST", "/api/v1/advise", `{"queries":6,"projections":true,"agg_views":true}`},
	{"", "POST", "/api/v1/advise", `{"oops":`},
	{"", "POST", "/api/v1/advise", `{"queries":8}{"queries":9}`},
	{"", "POST", "/api/v1/advise", `{"sql":"not-a-list"}`},
	{"", "POST", "/api/v1/advise", `{"sql":["SELECT broken FROM nowhere"]}`},
	{"", "POST", "/api/v1/advise", `{"queries":10001}`},
	{"", "POST", "/api/v1/materialize", `{}`},
	{"", "POST", "/api/v1/materialize", `{"oops":`},
	{"", "POST", "/api/v1/materialize", `{"indexes":[{"table":"nosuch","columns":["x"]}]}`},
	{"", "POST", "/api/v1/materialize", `{"indexes":[{"table":"photoobj","columns":["ra"]}]}`},
	{"", "GET", "/api/v1/stats", ""},

	// Close, then an eviction at the cap of three live sessions.
	{"", "DELETE", "/api/v1/sessions/s2", ""},
	{"", "GET", "/api/v1/sessions/s2", ""},
	{"", "DELETE", "/api/v1/sessions/s2", ""},
	{"", "POST", "/api/v1/sessions/s2/evaluate", `{}`},
	{"acme", "POST", "/api/v1/sessions", ""},
	{"acme", "POST", "/api/v1/sessions", ""},
	{"acme", "DELETE", "/api/v1/sessions/s1", ""},
	{"", "GET", "/api/v1/sessions/s1", ""},
	{"other", "POST", "/api/v1/sessions", ""},
	{"", "GET", "/api/v1/sessions/s3", ""},
	{"", "POST", "/api/v1/sessions/s3/indexes", `{"table":"photoobj","columns":["ra"]}`},
	{"", "GET", "/api/v1/sessions/s1", ""},
	{"", "POST", "/api/v1/sessions/s1/explain", `{"sql":"SELECT ra FROM photoobj"}`},
	{"", "DELETE", "/api/v1/sessions/s1", ""},
	{"", "GET", "/api/v1/sessions", ""},

	// The tuner and its autopilot.
	{"", "GET", "/api/v1/tuner/status", ""},
	{"", "POST", "/api/v1/tuner/observe", `{"sql":["SELECT objid FROM photoobj"]}`},
	{"", "GET", "/api/v1/tuners/t1/autopilot", ""},
	{"", "POST", "/api/v1/tuner", `{"oops":`},
	{"", "POST", "/api/v1/tuner", `{"epoch_length":4}`},
	{"", "POST", "/api/v1/tuner/observe", `{}`},
	{"", "POST", "/api/v1/tuner/observe", `{"oops":`},
	{"", "POST", "/api/v1/tuner/observe", `{"sql":["SELECT broken FROM nowhere"]}`},
	{"", "POST", "/api/v1/tuner/observe", `{"sql":["SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14","SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"]}`},
	{"", "GET", "/api/v1/tuner/status", ""},
	{"", "GET", "/api/v1/tuners/t9/autopilot", ""},
	{"", "GET", "/api/v1/tuners/t1/autopilot", ""},
	{"", "DELETE", "/api/v1/tuners/t1/autopilot", ""},
	{"", "POST", "/api/v1/tuners/t1/autopilot", `{"state_path":"/tmp/x"}`},
	{"", "POST", "/api/v1/tuners/t1/autopilot", `{"oops":`},
	{"", "POST", "/api/v1/tuners/t9/autopilot", `{}`},
	{"", "POST", "/api/v1/tuners/t1/autopilot", `{"probation_epochs":2,"build_budget_pages":256}`},
	{"", "POST", "/api/v1/tuners/t1/autopilot", `{}`},
	{"", "POST", "/api/v1/tuner/observe", `{"sql":["SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14","SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"]}`},
	{"", "POST", "/api/v1/tuner/observe", `{"sql":["SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14","SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"]}`},
	{"", "POST", "/api/v1/tuner/observe", `{"sql":["SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14","SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"]}`},
	{"", "POST", "/api/v1/tuner/observe", `{"sql":["SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14","SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"]}`},
	{"", "POST", "/api/v1/tuner/observe", `{"sql":["SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14","SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"]}`},
	{"", "POST", "/api/v1/tuner/observe", `{"sql":["SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14","SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"]}`},
	{"", "GET", "/api/v1/tuners/t1/autopilot", ""},
	{"", "GET", "/api/v1/tuner/status", ""},
	{"", "GET", "/metrics", ""},
	{"", "DELETE", "/api/v1/tuners/t9/autopilot", ""},
	{"", "DELETE", "/api/v1/tuners/t1/autopilot", ""},
	{"", "GET", "/api/v1/tuners/t1/autopilot", ""},
	{"", "DELETE", "/api/v1/tuners/t1/autopilot", ""},
	{"", "POST", "/api/v1/tuner/observe", `{"sql":["SELECT objid FROM photoobj"]}`},
	{"", "GET", "/api/v1/tuner/status", ""},
	{"", "POST", "/api/v1/tuner", ""},
	{"", "GET", "/api/v1/tuners/t1/autopilot", ""},
	{"", "GET", "/api/v1/tuners/t2/autopilot", ""},
	{"", "GET", "/readyz", ""},
	{"", "GET", "/metrics", ""},
}

// Reply fields that carry a wall-clock reading, masked before comparison.
var (
	maskTimings = regexp.MustCompile(`"(elapsed_ms|solve_ms)":[-+.0-9eE]+`)
	maskCreated = regexp.MustCompile(`"created":"[^"]*"`)
)

// TestRepliesArePinned drives repliesScript through Handler() and compares
// every reply — status, Content-Type, Retry-After and body — with
// testdata/replies.golden. It pins the wire contract byte for byte, so a
// refactor of the handlers shows any reply it changes. Timings and creation
// times are masked, and the latency histogram is dropped from the scrapes.
// Refresh the golden with -update-replies only for an intentional change.
func TestRepliesArePinned(t *testing.T) {
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	s := New(d, WithTenantQuota(2), WithMaxSessions(3), WithPoolSize(2), WithQueueDepth(4))
	t.Cleanup(func() {
		s.tunerMu.Lock()
		_, _ = s.seatTuner(nil, false)
		s.tunerMu.Unlock()
		s.pool.Close()
		s.sm.Stop()
	})

	var got strings.Builder
	for _, step := range repliesScript {
		tenant, method, path, body := step[0], step[1], step[2], step[3]
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if tenant != "" {
			req.Header.Set(tenantHeader, tenant)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		fmt.Fprintf(&got, ">>> %s %s", method, path)
		if tenant != "" {
			fmt.Fprintf(&got, " [%s]", tenant)
		}
		if body != "" {
			fmt.Fprintf(&got, " %s", body)
		}
		fmt.Fprintf(&got, "\n<<< %d %s", rec.Code, rec.Header().Get("Content-Type"))
		if ra := rec.Header().Get("Retry-After"); ra != "" {
			fmt.Fprintf(&got, " retry-after=%s", ra)
		}
		got.WriteString("\n")
		reply := rec.Body.String()
		reply = maskTimings.ReplaceAllString(reply, `"$1":"*"`)
		reply = maskCreated.ReplaceAllString(reply, `"created":"*"`)
		for _, line := range strings.SplitAfter(reply, "\n") {
			if line != "" && !strings.Contains(line, "dbdesigner_http_request_duration_seconds") {
				got.WriteString(line)
			}
		}
		if !strings.HasSuffix(reply, "\n") {
			got.WriteString("\n")
		}
	}

	golden := filepath.Join("testdata", "replies.golden")
	if *updateReplies {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-replies to create it)", err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("replies differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}
