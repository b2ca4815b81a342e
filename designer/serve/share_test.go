//go:build go1.24 && !race

package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/designer"
	"repro/designer/serve"
)

// shareFixture is a server over the tiny dataset driven through its handler
// alone, and a 300-statement evaluate body whose texts no one on the server
// side holds: the statements are generated by another designer, so the
// server's only copy of a tree is what its sessions keep.
type shareFixture struct {
	t        *testing.T
	h        http.Handler
	body     []byte
	stmts    int
	distinct int
}

func newShareFixture(t *testing.T) *shareFixture {
	t.Helper()
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.GenerateWorkload(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	sqls := make([]string, 0, w.Len())
	distinct := map[string]bool{}
	for _, q := range w.Queries() {
		sqls = append(sqls, q.SQL())
		distinct[q.SQL()] = true
	}
	body, err := json.Marshal(map[string]any{"sql": sqls})
	if err != nil {
		t.Fatal(err)
	}
	return &shareFixture{t: t, h: serve.New(d).Handler(), body: body, stmts: len(sqls), distinct: len(distinct)}
}

// do serves one request and fails unless it answers want.
func (f *shareFixture) do(method, path string, body []byte, want int) []byte {
	f.t.Helper()
	return f.doInto(new(bytes.Buffer), method, path, body, want)
}

// doInto is do with the reply written into reply.
func (f *shareFixture) doInto(reply *bytes.Buffer, method, path string, body []byte, want int) []byte {
	f.t.Helper()
	rec := httptest.NewRecorder()
	rec.Body = reply
	f.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != want {
		f.t.Fatalf("%s %s: %d, want %d: %s", method, path, rec.Code, want, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

func (f *shareFixture) session() string {
	f.t.Helper()
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(f.do("POST", "/api/v1/sessions", nil, http.StatusCreated), &created); err != nil {
		f.t.Fatal(err)
	}
	return created.ID
}

func (f *shareFixture) evaluate(id string) {
	f.t.Helper()
	f.do("POST", "/api/v1/sessions/"+id+"/evaluate", f.body, http.StatusOK)
}

// TestRepeatedEvaluateParsesNothing holds the production path of tree
// sharing to its allocation: a session's second evaluate of the same 300
// statements finds them in the workload its delta state prices, so the
// request decodes no text, builds no workload and parses nothing. Its body
// is read into a pooled buffer and its report is written from the facade's
// rows straight to the recorder, so of the 23.4 KB it allocates 16 KB are
// those rows (48 B a statement), 4 KB the reader httptest.NewRequest makes,
// and the rest the request's headers, decoder and evaluation. One parse a
// statement would add 318 KB (1,059 B a statement,
// TestWorkloadFromSQLAllocationCeiling). Read this way, the same request
// allocated 75 KB while each body had a buffer of its own and each report
// was copied into reply structs for encoding/json; 559–581 KB while every
// evaluate parsed its statements and a streaming decoder read its body; and
// 200 KB while it decoded the texts and built a workload of the trees its
// last one kept. The ceiling sits a tenth above.
func TestRepeatedEvaluateParsesNothing(t *testing.T) {
	const ceilingKB = 25.7
	// One P: the body and reply buffers come from per-P sync.Pools, and a
	// request served on the other P would make fresh ones.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := newShareFixture(t)
	id := f.session()
	f.evaluate(id) // parses every statement and prices it cold
	// Warm-up: the pools', the recorder's and the decoder's lazy state. The
	// recorder stands for the client: every reply lands in one buffer, sized
	// here outside the measured span, so the reading is what the server
	// allocates, not how a bytes.Buffer grows.
	path := "/api/v1/sessions/" + id + "/evaluate"
	reply := new(bytes.Buffer)
	reply.Grow(2 * len(f.doInto(reply, "POST", path, f.body, http.StatusOK)))
	const requests = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		reply.Reset()
		f.doInto(reply, "POST", path, f.body, http.StatusOK)
	}
	runtime.ReadMemStats(&after)
	perRequestKB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / requests
	t.Logf("%.1f KB a repeated evaluate of %d statements, ceiling %.1f KB", perRequestKB, f.stmts, ceilingKB)
	if perRequestKB > ceilingKB {
		t.Fatalf("a repeated evaluate of %d statements allocates %.1f KB, ceiling %.1f KB", f.stmts, perRequestKB, ceilingKB)
	}
}

// TestSessionsShareRetainedTrees pins what a session keeps of its workload
// now that its delta state holds the trees it priced. The first session to
// evaluate 300 statements (251 distinct texts) retains 465 KB: their trees
// with the analyses and keys memoized on them, the costs, and the state's
// copy of the workload. A second session evaluating the same texts finds
// those trees in the designer's table and retains 68 KB. So the trees cost
// 1.6 KB a distinct live statement, once, however many sessions hold them.
// Before the state held trees, each session retained 194 KB: it parsed its
// own trees, and its state kept their footprints and let the trees go. A
// session alone thus retains 0.9 KB a statement more than it did. The
// ceiling on the shared part is a tenth above its reading; the floor of
// half the ceiling fails when sessions share nothing.
func TestSessionsShareRetainedTrees(t *testing.T) {
	const ceilingKB = 1.75
	f := newShareFixture(t)
	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	// Warm-up: the server's lazy state, in a session closed before the
	// first reading.
	warm := f.session()
	f.do("POST", "/api/v1/sessions/"+warm+"/evaluate", []byte(`{"sql":["SELECT objid FROM photoobj WHERE objid = 7"]}`), http.StatusOK)
	f.do("DELETE", "/api/v1/sessions/"+warm, nil, http.StatusOK)

	h0 := heap()
	f.evaluate(f.session())
	h1 := heap()
	f.evaluate(f.session())
	h2 := heap()
	first, second := h1-h0, h2-h1
	sharedKB := (first - second) / 1024 / float64(f.distinct)
	t.Logf("the first session retains %.0f KB, the second %.0f KB: %.2f KB shared a distinct statement (%d of %d), ceiling %.2f KB",
		first/1024, second/1024, sharedKB, f.distinct, f.stmts, ceilingKB)
	if sharedKB > ceilingKB || sharedKB < ceilingKB/2 {
		t.Fatalf("two sessions over the same %d statements share %.2f KB a distinct statement, want %.2f to %.2f KB",
			f.stmts, sharedKB, ceilingKB/2, ceilingKB)
	}
}
