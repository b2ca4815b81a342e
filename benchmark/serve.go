package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/designer"
	"repro/designer/serve"
)

// ---------------------------------------------------------------------------
// serve_whatif — the whatif_edit question through the HTTP front door.
// ---------------------------------------------------------------------------

// serveClients is the number of tenants asking at once: one per core of the
// reference box, each a closed loop on its own keep-alive connection.
const serveClients = 2

type serveWhatIf struct {
	facadeClient
	srv   *serve.Server
	base  string
	sqls  []string
	w     *designer.Workload
	body  []byte // the evaluate request, encoded once: the client has it ready
	steps []editStep
	per   int
	cl    []*serveClient
}

// serveClient is one tenant: its connection, its session and what it last
// heard from the server.
type serveClient struct {
	hc      *http.Client
	tenant  string
	session string
	design  []designer.Index
	last    serveReport
	bytes   atomic.Int64
}

// serveReport is what the client reads out of an evaluate reply.
type serveReport struct {
	BaseTotal float64 `json:"base_total"`
	NewTotal  float64 `json:"new_total"`
	Queries   []struct {
		NewCost float64 `json:"new_cost"`
	} `json:"queries"`
}

func setupServe(ctx context.Context, o Options, n int, _ *probeEnv) (instance, error) {
	if procs := runtime.GOMAXPROCS(0); procs < serveClients {
		return nil, fmt.Errorf("serve_whatif runs %d clients and GOMAXPROCS is %d: the load generator would queue behind itself", serveClients, procs)
	}
	d, err := designer.OpenSDSS(dataset, o.Seed)
	if err != nil {
		return nil, err
	}
	x := &serveWhatIf{facadeClient: facadeClient{d}}
	if x.sqls, err = script(d, subSeed(o.Seed, 0), evalQueries); err != nil {
		return nil, err
	}
	if x.w, err = d.WorkloadFromSQL(x.sqls); err != nil {
		return nil, err
	}
	if x.steps, err = editScript(ctx, d, x.sqls, o.Scale); err != nil {
		return nil, err
	}
	if x.body, err = json.Marshal(map[string]any{"sql": x.sqls}); err != nil {
		return nil, err
	}
	x.per = wholeRounds(max(1, n/serveClients), len(x.steps))
	x.srv = serve.New(d)
	if err := x.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	x.base = "http://" + x.srv.Addr()
	for c := 0; c < serveClients; c++ {
		cl := &serveClient{
			hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
			tenant: "tenant" + strconv.Itoa(c),
		}
		x.cl = append(x.cl, cl)
		var created struct {
			ID string `json:"id"`
		}
		if err := x.call(ctx, cl, "POST", "/api/v1/sessions", nil, &created); err != nil {
			x.close()
			return nil, err
		}
		cl.session = created.ID
		// Priming: the first evaluation prepares all statements.
		if err := x.call(ctx, cl, "POST", "/api/v1/sessions/"+cl.session+"/evaluate", x.body, &cl.last); err != nil {
			x.close()
			return nil, err
		}
	}
	return x, nil
}

// call sends one request and decodes the reply; any status but 2xx is an
// error (a refused request is a failed answer).
func (x *serveWhatIf) call(ctx context.Context, cl *serveClient, method, path string, body []byte, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, x.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", cl.tenant)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	cl.bytes.Add(int64(len(raw)))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(raw, into)
}

func (x *serveWhatIf) clients() int             { return len(x.cl) }
func (x *serveWhatIf) answers() int             { return x.per }
func (x *serveWhatIf) probeScripts() [][]string { return chunk(x.sqls, adviseQueries, 4) }

func (x *serveWhatIf) close() {
	for _, cl := range x.cl {
		cl.hc.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = x.srv.Shutdown(ctx) // nothing is in flight; a timeout here changes no result
}

func (x *serveWhatIf) answer(ctx context.Context, c, i int, tr *tracer, root int) (float64, error) {
	cl := x.cl[c]
	st := x.steps[i%len(x.steps)]
	path := "/api/v1/sessions/" + cl.session
	id := tr.begin(root, tr.answerOf(root), "http.edit")
	if st.add {
		body, err := json.Marshal(map[string]any{"table": st.ix.Table, "columns": st.ix.Columns})
		if err != nil {
			return 0, err
		}
		if err := x.call(ctx, cl, "POST", path+"/indexes", body, nil); err != nil {
			return 0, err
		}
		cl.design = append(cl.design, st.ix)
	} else {
		if err := x.call(ctx, cl, "DELETE", path+"/indexes?key="+url.QueryEscape(st.ix.Key()), nil, nil); err != nil {
			return 0, err
		}
		for k, ix := range cl.design {
			if ix.Key() == st.ix.Key() {
				cl.design = append(cl.design[:k:k], cl.design[k+1:]...)
				break
			}
		}
	}
	tr.end(id)
	id = tr.begin(root, tr.answerOf(root), "http.evaluate")
	err := x.call(ctx, cl, "POST", path+"/evaluate", x.body, &cl.last)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if len(cl.last.Queries) != len(x.sqls) {
		return 0, fmt.Errorf("serve_whatif: reply prices %d statements, asked for %d", len(cl.last.Queries), len(x.sqls))
	}
	return cl.last.NewTotal, nil
}

func (x *serveWhatIf) canon(c int) string {
	return fmt.Sprintf("%.6f|%.6f|%d", x.cl[c].last.BaseTotal, x.cl[c].last.NewTotal, len(x.cl[c].last.Queries))
}

// verify: the JSON totals must equal the facade's for the same design.
func (x *serveWhatIf) verify(ctx context.Context, c int) error {
	cl := x.cl[c]
	design := make([]designer.Index, len(cl.design))
	for i, ix := range cl.design {
		ix.Hypothetical = true
		design[i] = ix
	}
	if err := sameReport(ctx, x.d, x.w, design, cl.last.BaseTotal, cl.last.NewTotal); err != nil {
		return fmt.Errorf("serve_whatif: %w", err)
	}
	return nil
}

func (x *serveWhatIf) counts() map[string]float64 {
	m := cacheCounts(x.d)
	for _, cl := range x.cl {
		m[cRespBytes] += float64(cl.bytes.Load())
	}
	return m
}
