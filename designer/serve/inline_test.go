package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/designer"
)

// inlineFixture drives two servers over the tiny dataset through their
// handlers: srv, whose one session walks the script, and ref, on its own
// designer, where every reply is asked again of a fresh session.
type inlineFixture struct {
	t        *testing.T
	srv, ref *Server
}

func newInlineFixture(t *testing.T) *inlineFixture {
	t.Helper()
	open := func() *Server {
		d, err := designer.OpenSDSS("tiny", 41)
		if err != nil {
			t.Fatal(err)
		}
		return New(d)
	}
	return &inlineFixture{t: t, srv: open(), ref: open()}
}

// do serves one request and fails unless it answers want.
func (f *inlineFixture) do(s *Server, method, path string, body []byte, want int) []byte {
	f.t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != want {
		f.t.Fatalf("%s %s: %d, want %d: %s", method, path, rec.Code, want, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// ixBody is the add-index body of a photoobj index on cols, comma-separated:
// the index photoobj(cols).
func ixBody(cols string) []byte {
	data, _ := json.Marshal(map[string]any{"table": "photoobj", "columns": strings.Split(cols, ",")})
	return data
}

// session opens a session on s with the design's photoobj indexes added.
func (f *inlineFixture) session(s *Server, design []string) string {
	f.t.Helper()
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(f.do(s, "POST", "/api/v1/sessions", nil, http.StatusCreated), &created); err != nil {
		f.t.Fatal(err)
	}
	for _, cols := range design {
		f.do(s, "POST", "/api/v1/sessions/"+created.ID+"/indexes", ixBody(cols), http.StatusCreated)
	}
	return created.ID
}

// state is srv's session behind id.
func (f *inlineFixture) state(id string) *session {
	f.t.Helper()
	ms, err := f.srv.sm.Get(id)
	if err != nil {
		f.t.Fatal(err)
	}
	return ms.Value.(*session)
}

// held resolves body's workload as the evaluate route does and reports
// whether it resolved to the workload the session holds.
func (f *inlineFixture) held(id string, body []byte) bool {
	f.t.Helper()
	var req workloadJSON
	if err := json.Unmarshal(body, &req); err != nil {
		f.t.Fatal(err)
	}
	held := f.state(id).evaluated.Load()
	wl, err := f.srv.workload(req, held)
	if err != nil {
		f.t.Fatal(err)
	}
	return held != nil && wl == held
}

// fresh is a fresh session's reply to body, on ref, after design.
func (f *inlineFixture) fresh(design []string, body []byte) []byte {
	f.t.Helper()
	return f.do(f.ref, "POST", "/api/v1/sessions/"+f.session(f.ref, design)+"/evaluate", body, http.StatusOK)
}

// sqlBody encodes texts as an evaluate body; html chooses json.Marshal's
// HTML escaping of <, > and &, and indent adds white space everywhere the
// grammar allows it.
func sqlBody(t *testing.T, texts []string, html bool, indent string) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(html)
	enc.SetIndent(indent, indent)
	if err := enc.Encode(map[string]any{"sql": texts}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// escapeAll encodes texts with every character of every text as a \u
// escape, and a character beyond the BMP as a surrogate pair.
func escapeAll(texts []string) []byte {
	var b strings.Builder
	b.WriteString(`{"sql":[`)
	for i, s := range texts {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`"`)
		for _, r := range s {
			if r > 0xFFFF {
				r -= 0x10000
				fmt.Fprintf(&b, `\u%04x\u%04X`, 0xD800+(r>>10), 0xDC00+(r&0x3FF))
				continue
			}
			fmt.Fprintf(&b, `\u%04x`, r)
		}
		b.WriteString(`"`)
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// TestInlineWorkloadMatchesFreshSession is the differential twin of the
// session-resident inline workload: one session walks a script of index
// edits and evaluate bodies, and every reply equals, byte for byte, a fresh
// session's reply to the same body after the same edits — a fresh session
// holds nothing, so it decodes and parses every body. Each step also
// states whether the body must resolve to the workload the session holds:
// the same texts however they are encoded do, anything else does not — a
// changed, appended, dropped or swapped statement, and a generated
// workload's texts, whose IDs are not the inline form's. On a hit, the
// delta split is the edit's: all reused when nothing changed.
func TestInlineWorkloadMatchesFreshSession(t *testing.T) {
	f := newInlineFixture(t)
	gen, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.GenerateWorkload(7, 24)
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, w.Len())
	for i, q := range w.Queries() {
		texts[i] = q.SQL()
	}
	if !strings.ContainsAny(strings.Join(texts, ""), "<>") {
		t.Fatal("the workload has no < or >: HTML escaping changes nothing")
	}
	generated, err := gen.GenerateWorkload(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	genTexts := make([]string, generated.Len())
	for i, q := range generated.Queries() {
		genTexts[i] = q.SQL()
	}
	with := func(edit func(s []string) []string) []string { return edit(append([]string(nil), texts...)) }
	changed := with(func(s []string) []string { s[5] = "SELECT objid FROM photoobj WHERE ra < 10"; return s })
	swapped := with(func(s []string) []string { s[2], s[9] = s[9], s[2]; return s })
	dupes := with(func(s []string) []string { return append(s[:4:4], s[0], s[1], s[0]) })

	const (
		miss = iota
		hit
		generatedWl // the body names no statement
	)
	type step struct {
		name string
		add  string // the columns of a photoobj index to add before the evaluate
		drop string // the columns of one to drop before it
		body []byte
		want int
	}
	steps := []step{
		{"first", "", "", sqlBody(t, texts, true, ""), miss},
		{"repeated", "", "", sqlBody(t, texts, true, ""), hit},
		{"after an add", "psfmag_r", "", sqlBody(t, texts, true, ""), hit},
		{"unescaped html", "", "", sqlBody(t, texts, false, ""), hit},
		{"white space", "type,ra", "", sqlBody(t, texts, true, "  \t"), hit},
		{"every character escaped", "", "", escapeAll(texts), hit},
		{"one changed", "", "psfmag_r", sqlBody(t, changed, true, ""), miss},
		{"changed, repeated", "", "", sqlBody(t, changed, false, " "), hit},
		{"original again", "", "", sqlBody(t, texts, true, ""), miss},
		{"one appended", "", "", sqlBody(t, append(texts[:len(texts):len(texts)], texts[3]), true, ""), miss},
		{"original again", "dec", "", sqlBody(t, texts, true, ""), miss},
		{"last dropped", "", "", sqlBody(t, texts[:len(texts)-1], true, ""), miss},
		{"two swapped", "", "", sqlBody(t, swapped, true, ""), miss},
		{"duplicates", "", "", sqlBody(t, dupes, true, ""), miss},
		{"duplicates, repeated", "", "dec", sqlBody(t, dupes, false, ""), hit},
		{"empty list", "", "", []byte(`{"sql":[]}`), generatedWl},
		{"null list", "", "", []byte(`{"sql":null}`), generatedWl},
		{"generated", "", "", []byte(`{"queries":8,"seed":3}`), generatedWl},
		{"the generated texts inline", "", "", sqlBody(t, genTexts, true, ""), miss},
		{"the generated texts, repeated", "", "", sqlBody(t, genTexts, true, ""), hit},
	}
	var design []string
	id := f.session(f.srv, nil)
	hits := 0
	for i, st := range steps {
		if st.add != "" {
			f.do(f.srv, "POST", "/api/v1/sessions/"+id+"/indexes", ixBody(st.add), http.StatusCreated)
			design = append(design, st.add)
		}
		if st.drop != "" {
			f.do(f.srv, "DELETE", "/api/v1/sessions/"+id+"/indexes?key=photoobj("+st.drop+")", nil, http.StatusOK)
			design = slices.DeleteFunc(design, func(cols string) bool { return cols == st.drop })
		}
		edited := st.add != "" || st.drop != ""
		if st.want != generatedWl {
			if got := f.held(id, st.body); got != (st.want == hit) {
				t.Fatalf("step %d (%s): resolved to the held workload: %v, want %v", i, st.name, got, st.want == hit)
			}
		}
		got := f.do(f.srv, "POST", "/api/v1/sessions/"+id+"/evaluate", st.body, http.StatusOK)
		if want := f.fresh(design, st.body); !bytes.Equal(got, want) {
			t.Fatalf("step %d (%s): the session answers\n%s\na fresh session\n%s", i, st.name, got, want)
		}
		if st.want != hit {
			continue
		}
		hits++
		recosted, reused := f.state(id).ds.LastEvaluateDelta()
		n := f.state(id).evaluated.Load().Len()
		if recosted+reused != n || (!edited && recosted != 0) || (edited && reused == 0) {
			t.Fatalf("step %d (%s): %d recosted and %d reused of %d statements after an edit: %v", i, st.name, recosted, reused, n, edited)
		}
	}
	if hits == 0 {
		t.Fatal("no step resolved to the held workload")
	}

	// The session advise and readvise routes resolve against the last
	// advise's workload: the same inline texts again are that workload, and
	// the re-advise is the cached repeat.
	body := []byte(`{"budget_pages":200,` + string(sqlBody(t, texts[:8], true, ""))[1:])
	f.do(f.srv, "POST", "/api/v1/sessions/"+id+"/advise", body, http.StatusOK)
	var req adviseRequestJSON
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	last := f.state(id).lastWl.Load()
	if wl, err := f.srv.workload(req.workloadJSON, last); err != nil || wl != last {
		t.Fatalf("an advise body repeated does not resolve to the session's last advise workload (err %v)", err)
	}
	var re struct {
		Readvise struct {
			Cached bool `json:"cached"`
		} `json:"readvise"`
	}
	if err := json.Unmarshal(f.do(f.srv, "POST", "/api/v1/sessions/"+id+"/readvise", body, http.StatusOK), &re); err != nil || !re.Readvise.Cached {
		t.Fatalf("a readvise of the same inline question is not the cached repeat (err %v)", err)
	}
}

// TestConcurrentInlineEvaluates races two goroutines on one session, each
// alternating the session's workload with an edited one, so that one
// request's check reads the published workload while the other's
// evaluate replaces it. Every reply must equal a fresh session's reply to
// the same body, asked serially beforehand.
func TestConcurrentInlineEvaluates(t *testing.T) {
	f := newInlineFixture(t)
	gen, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.GenerateWorkload(11, 20)
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, w.Len())
	for i, q := range w.Queries() {
		texts[i] = q.SQL()
	}
	edited := append(append([]string(nil), texts[1:]...), texts[0])
	design := []string{"type,psfmag_r"}
	bodies := [][]byte{sqlBody(t, texts, true, ""), sqlBody(t, edited, false, "")}
	want := [][]byte{f.fresh(design, bodies[0]), f.fresh(design, bodies[1])}

	id := f.session(f.srv, design)
	const goroutines, rounds = 2, 40
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each goroutine sends the same body twice in a row, then
				// the other: a repeat, then an edit, as a what-if loop does.
				k := (r/2 + g) % 2
				rec := httptest.NewRecorder()
				f.srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/sessions/"+id+"/evaluate", bytes.NewReader(bodies[k])))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[k]) {
					errs <- fmt.Errorf("goroutine %d round %d: %d %s", g, r, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzInlineStatementsMatch holds the inline matcher to encoding/json. The
// input is a "sql" value's bytes and a held list of texts (NUL-separated;
// with decoded set, the list is instead what json.Unmarshal makes of the
// bytes, when it can). The matcher may report a match only when
// json.Unmarshal into a []string succeeds and yields exactly the held
// texts: the bytes of invalid UTF-8 and a lone surrogate, which the decoder
// turns into U+FFFD, miss or agree with it. The held list, encoded by
// json.Marshal with and without HTML escaping, must match itself; and the
// decode step's shape check must agree with json.Unmarshal on whether the
// list is empty.
func FuzzInlineStatementsMatch(f *testing.F) {
	f.Add([]byte(`["SELECT ra FROM photoobj WHERE ra < 10","SELECT z FROM specobj WHERE z > 1.5"]`), "", true)
	f.Add([]byte(` [ "a" , "b\n" ] `), "a\x00b\n", false)
	f.Fuzz(func(t *testing.T, raw []byte, heldTexts string, decoded bool) {
		var want []string
		decodeErr := json.Unmarshal(raw, &want)
		var held []string
		switch {
		case decoded && decodeErr == nil:
			held = want
		case heldTexts != "":
			held = strings.Split(heldTexts, "\x00")
		}
		if sameTexts(raw, len(held), func(i int) string { return held[i] }) {
			if decodeErr != nil {
				t.Fatalf("%q matches %q, but json.Unmarshal refuses it: %v", raw, held, decodeErr)
			}
			if !slices.Equal(want, held) {
				t.Fatalf("%q matches %q, but json.Unmarshal reads %q", raw, held, want)
			}
		}
		if decodeErr == nil && json.Valid(raw) {
			if !walkStrings(raw, func([]byte) bool { return true }) {
				t.Fatalf("the decode step refuses %q, which json.Unmarshal reads as %q", raw, want)
			}
			if got := sqlList(raw).empty(); got != (len(want) == 0) {
				t.Fatalf("%q: empty() = %v, json.Unmarshal reads %d texts", raw, got, len(want))
			}
		}
		for _, html := range []bool{true, false} {
			valid := true
			for _, s := range held {
				valid = valid && utf8.ValidString(s)
			}
			if !valid || held == nil {
				break
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(html)
			if err := enc.Encode(held); err != nil {
				t.Fatal(err)
			}
			if !sameTexts(buf.Bytes(), len(held), func(i int) string { return held[i] }) {
				t.Fatalf("%q, encoded by encoding/json (HTML escaping %v) as %s, does not match itself", held, html, buf.Bytes())
			}
		}
	})
}
