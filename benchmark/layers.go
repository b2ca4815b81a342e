package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/designer"
	"repro/designer/serve"
	"repro/designer/serve/admission"
	"repro/designer/serve/sessionmgr"
	"repro/internal/autopart"
	"repro/internal/autopilot"
	"repro/internal/catalog"
	"repro/internal/colt"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/interaction"
	"repro/internal/inum"
	"repro/internal/lp"
	"repro/internal/schedule"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// timed runs fn reps times and returns the median duration in milliseconds.
func timed(reps int, fn func() error) (float64, error) {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(ds), nil
}

// workloadCounts turns the exact per-answer counts of the workload's own
// reference lap into per-layer metrics. A count the workload does not
// produce keeps the value the stopwatches measured on its statements.
func workloadCounts(c, m map[string]float64) {
	m["sqlparse.stmts_per_answer"] = c[cStmts]
	m["optimizer.full_opts_per_answer"] = c[cFullOpts]
	m["inum.costings_per_answer"] = c[cCostings]
	m["lp.nodes_per_answer"] = c[cNodes]
	m["cophy.warm_started_share"] = 100 * c[cWarmStarted]
	if total := c[cRecosted] + c[cReused]; total > 0 {
		m["engine.delta_recost_ratio"] = 100 * c[cRecosted] / total
	}
	if c[cEpochs] > 0 {
		m["colt.whatif_calls_per_epoch"] = c[cWhatIfCalls] / c[cEpochs]
		m["colt.alerts"] = c[cAlerts]
	}
	if c[cRespBytes] > 0 {
		m["serve.response_kb_per_answer"] = c[cRespBytes] / 1024
	}
}

// probes holds what the per-layer stopwatches share: the twin engine, the
// workload's designer, and the workload's probe scripts parsed for both.
type probes struct {
	ctx  context.Context
	seed int64
	p    *probeEnv
	v    *engine.View
	d    *designer.Designer
	m    map[string]float64

	scripts [][]string
	sqls    []string // scripts[0]: the statements most stopwatches run on
	all     []string // every probe statement, for the calls that want more
	w, wAll *workload.Workload
	dwAll   *designer.Workload
	cands   []*catalog.Index // candidates of w, set by costing
}

// layerProbes times one public call per layer, from outside, on the
// workload's own statements, and stores one metric per call in m. With
// staged set it also answers each probe script through the staged advise
// pipeline, recording stage spans into tr.
func layerProbes(ctx context.Context, o Options, p *probeEnv, inst instance, tr *tracer, staged bool, m map[string]float64) error {
	x := &probes{ctx: ctx, seed: o.Seed, p: p, v: p.eng.Pin(), d: inst.designer(), m: m, scripts: inst.probeScripts()}
	if len(x.scripts) == 0 {
		return fmt.Errorf("benchmark: the workload has no probe script")
	}
	x.scripts = x.scripts[:min(4, len(x.scripts))]
	x.sqls = x.scripts[0]
	for _, s := range x.scripts {
		x.all = append(x.all, s...)
	}
	var err error
	if x.w, err = p.parse("p", x.sqls); err != nil {
		return err
	}
	if x.wAll, err = p.parse("pa", x.all); err != nil {
		return err
	}
	if x.dwAll, err = x.d.WorkloadFromSQL(x.all); err != nil {
		return err
	}
	if staged {
		for round := 0; round < 3; round++ {
			for k, s := range x.scripts {
				root := tr.begin(0, -(round*len(x.scripts) + k + 1), "staged_advise")
				_, _, err := p.replica(ctx, replicaQuestion{sql: s, opts: fullAdvice}, nil, tr, root)
				tr.end(root)
				if err != nil {
					return err
				}
			}
		}
	}
	for _, probe := range []func() error{x.costing, x.advisors, x.facade, x.tuners, x.serve, x.setup} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// costing: sqlparse, whatif, optimizer, inum and the engine's sweeps and
// evaluations — everything under an advisor.
func (x *probes) costing() error {
	n := float64(len(x.sqls))

	// sqlparse
	ms, err := timed(15, func() error {
		for _, sql := range x.sqls {
			if _, err := sqlparse.ParseSelect(sql); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	x.m["sqlparse.parse_us_per_stmt"] = ms * 1e3 / n

	// whatif
	if x.m["whatif.candidates_ms"], err = timed(9, func() error {
		x.cands = x.v.Session().GenerateCandidates(x.w, whatif.DefaultCandidateOptions())
		return nil
	}); err != nil {
		return err
	}
	x.m["whatif.candidates_count"] = float64(len(x.cands))
	if len(x.cands) < 4 {
		return fmt.Errorf("benchmark: only %d candidates on the probe script", len(x.cands))
	}
	if ms, err = timed(15, func() error {
		for _, ix := range x.cands {
			if _, err := x.v.Session().HypotheticalIndex(ix.Table, ix.Columns...); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	x.m["whatif.hypothetical_us"] = ms * 1e3 / float64(len(x.cands))

	// optimizer
	env := x.p.eng.Env()
	if ms, err = timed(9, func() error {
		for _, q := range x.w.Queries {
			if _, err := env.Optimize(q.Stmt); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	x.m["optimizer.optimize_us_per_stmt"] = ms * 1e3 / n

	// inum
	var cache *inum.Cache
	prepare := func(c *inum.Cache, w *workload.Workload) ([]*inum.CachedQuery, error) {
		qs := make([]*inum.CachedQuery, len(w.Queries))
		for i, q := range w.Queries {
			cq, err := c.Prepare(q.ID, q.Stmt, x.cands)
			if err != nil {
				return nil, err
			}
			qs[i] = cq
		}
		return qs, nil
	}
	if ms, err = timed(5, func() error {
		cache = inum.New(env)
		_, err := prepare(cache, x.w)
		return err
	}); err != nil {
		return err
	}
	x.m["inum.prepare_ms_per_query"] = ms / n
	cache = nil
	heap := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	h0 := heap()
	big := inum.New(env)
	if _, err := prepare(big, x.wAll); err != nil {
		return err
	}
	x.m["inum.retained_kb_per_stmt"] = (heap() - h0) / 1024 / float64(len(x.all))
	runtime.KeepAlive(big)

	// Configurations for costing: 32 distinct subsets of the candidates.
	cfgs := make([]*catalog.Configuration, 32)
	for i := range cfgs {
		cfg := catalog.NewConfiguration()
		for j, ix := range x.cands {
			if (i+j)%5 == 0 || (i*j)%7 == 1 {
				cfg = cfg.WithIndex(ix)
			}
		}
		cfgs[i] = cfg
	}
	cache = inum.New(env)
	cqs, err := prepare(cache, x.w)
	if err != nil {
		return err
	}
	pass := func() error {
		for _, cq := range cqs {
			for _, cfg := range cfgs {
				if _, err := cache.CostFor(cq, cfg); err != nil {
					return err
				}
			}
		}
		return nil
	}
	calls := n * float64(len(cfgs))
	// The first pass over fresh per-table designs fills the access-cost
	// memo (misses); every later pass hits it.
	if ms, err = timed(1, pass); err != nil {
		return err
	}
	x.m["inum.costfor_ns_miss"] = ms * 1e6 / calls
	if ms, err = timed(7, pass); err != nil {
		return err
	}
	x.m["inum.costfor_ns_hit"] = ms * 1e6 / calls
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pass(); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	x.m["inum.costfor_allocs_hit"] = float64(ms1.Mallocs-ms0.Mallocs) / calls
	// The paper's "orders of magnitude": a full optimization over a cached
	// costing, both per statement on these statements.
	x.m["inum.speedup_x"] = x.m["optimizer.optimize_us_per_stmt"] * 1e3 / x.m["inum.costfor_ns_hit"]

	// engine
	if _, err := x.v.SweepConfigs(x.ctx, x.w, cfgs); err != nil {
		return err
	}
	sweep := func() error {
		_, err := x.v.SweepConfigs(x.ctx, x.w, cfgs)
		return err
	}
	if x.m["engine.sweep_configs_ms"], err = timed(9, sweep); err != nil {
		return err
	}
	x.p.eng.SetWorkers(1)
	serial, err := timed(9, sweep)
	x.p.eng.SetWorkers(0)
	if err != nil {
		return err
	}
	// Serial sweep time over the sweep at the default width (GOMAXPROCS).
	x.m["engine.sweep_parallel_x"] = serial / x.m["engine.sweep_configs_ms"]
	cfgA, cfgB := cfgs[1], cfgs[1].WithIndex(x.cands[1])
	if cfgA.HasIndex(x.cands[1].Key()) {
		cfgB = cfgA.WithoutIndex(x.cands[1].Key())
	}
	var state *engine.EvalState
	if x.m["engine.evaluate_cold_ms"], err = timed(9, func() error {
		_, state, err = x.v.EvaluateDelta(x.ctx, x.wAll, cfgA, nil)
		return err
	}); err != nil {
		return err
	}
	flip := 0
	var recosted, reused float64
	if x.m["engine.evaluate_delta_ms"], err = timed(10, func() error {
		flip++
		cfg := cfgB
		if flip%2 == 0 {
			cfg = cfgA
		}
		_, state, err = x.v.EvaluateDelta(x.ctx, x.wAll, cfg, state)
		if err == nil {
			recosted, reused = recosted+float64(state.Recosted), reused+float64(state.Reused)
		}
		return err
	}); err != nil {
		return err
	}
	x.m["engine.delta_recost_ratio"] = 100 * recosted / (recosted + reused)
	if x.m["engine.open_ms"], err = timed(5, func() error {
		_, err := engine.NewWithBackend(x.p.store.Schema, x.p.store.Stats, x.p.store.MaterializedConfiguration(), engine.BackendSpec{})
		return err
	}); err != nil {
		return err
	}

	return nil
}

func (x *probes) advisors() error {
	// cophy, lp, autopart, interaction, schedule: each probe script is
	// advised once, cold, in pipeline order, so every advisor meets the
	// cache in the state the pipeline would hand it; the metric is the
	// median over the x.scripts.
	samples := map[string][]float64{}
	once := func(name string, fn func() error) error {
		_, c0 := x.p.eng.CacheStats()
		ms, err := timed(1, fn)
		_, c1 := x.p.eng.CacheStats()
		samples[name+"_ms"] = append(samples[name+"_ms"], ms)
		samples[name+"_costings"] = append(samples[name+"_costings"], float64(c1-c0))
		return err
	}
	for k, s := range x.scripts {
		wk, err := x.p.parse(fmt.Sprintf("c%d", k), s)
		if err != nil {
			return err
		}
		ck := x.v.Session().GenerateCandidates(wk, whatif.DefaultCandidateOptions())
		if err := x.v.Prepare(x.ctx, wk, ck); err != nil {
			return err
		}
		var res0, res25 *cophy.Result
		if err := once("cophy.unconstrained", func() (err error) {
			res0, err = cophy.New(x.p.eng, ck).AdviseView(x.ctx, x.v, wk, cophy.DefaultOptions())
			return err
		}); err != nil {
			return err
		}
		if len(res0.Indexes) < 2 {
			return fmt.Errorf("benchmark: the advice for probe script %d has %d indexes, need two", k, len(res0.Indexes))
		}
		advised := catalog.NewConfiguration()
		var foot int64
		for _, ix := range res0.Indexes {
			advised = advised.WithIndex(ix)
			foot += ix.EstimatedPages
		}
		tight := cophy.DefaultOptions()
		tight.StorageBudgetPages = max(1, foot/4)
		if err := once("cophy.budget25", func() (err error) {
			res25, err = cophy.New(x.p.eng, ck).AdviseView(x.ctx, x.v, wk, tight)
			return err
		}); err != nil {
			return err
		}
		solve := float64(res25.SolveTime.Nanoseconds()) / 1e6
		samples["lp.solve_ms"] = append(samples["lp.solve_ms"], solve)
		samples["lp.ms_per_node"] = append(samples["lp.ms_per_node"], solve/float64(max(1, res25.Nodes)))
		samples["cophy.pricing_calls"] = append(samples["cophy.pricing_calls"], float64(res25.PricingCalls))
		if err := once("autopart", func() error {
			_, err := autopart.New(x.p.eng).AdviseView(x.ctx, x.v, wk, advised, autopart.DefaultOptions())
			return err
		}); err != nil {
			return err
		}
		if err := once("interaction", func() error {
			_, err := interaction.AnalyzeView(x.ctx, x.v, wk, res0.Indexes, interaction.DefaultOptions())
			return err
		}); err != nil {
			return err
		}
		if err := once("schedule", func() error {
			_, err := schedule.New(x.p.eng).GreedyView(x.ctx, x.v, wk, res0.Indexes)
			return err
		}); err != nil {
			return err
		}
	}
	for metric, from := range map[string]string{
		"cophy.advise_ms_unconstrained": "cophy.unconstrained_ms",
		"cophy.advise_ms_budget25":      "cophy.budget25_ms",
		"cophy.pricing_calls":           "cophy.pricing_calls",
		"lp.solve_ms":                   "lp.solve_ms",
		"lp.ms_per_node":                "lp.ms_per_node",
		"autopart.advise_ms":            "autopart_ms",
		"autopart.costings":             "autopart_costings",
		"interaction.analyze_ms":        "interaction_ms",
		"interaction.costings":          "interaction_costings",
		"schedule.greedy_ms":            "schedule_ms",
		"schedule.costings":             "schedule_costings",
	} {
		x.m[metric] = median(samples[from])
	}
	x.m["cophy.build_ms"] = x.m["cophy.advise_ms_budget25"] - x.m["lp.solve_ms"]
	fixture := mipFixture()
	var err error
	if x.m["lp.mip_fixture_ms"], err = timed(5, func() error {
		if sol := lp.SolveMIP(x.ctx, fixture, lp.MIPOptions{}); sol.Status != lp.StatusOptimal {
			return fmt.Errorf("benchmark: MIP fixture ended %v", sol.Status)
		}
		return nil
	}); err != nil {
		return err
	}

	return nil
}

// facade: the designer package's own calls.
func (x *probes) facade() error {
	var dw *designer.Workload
	var err error
	if x.m["designer.workload_from_sql_ms"], err = timed(9, func() error {
		dw, err = x.d.WorkloadFromSQL(x.sqls)
		return err
	}); err != nil {
		return err
	}
	adv, err := x.d.Advise(x.ctx, dw, fullAdvice)
	if err != nil {
		return err
	}
	ms, err := timed(15, func() error { _ = adv.DDL(); return nil })
	if err != nil {
		return err
	}
	x.m["designer.ddl_us"] = ms * 1e3
	sess := x.d.NewDesignSession()
	if _, err := sess.Evaluate(x.ctx, x.dwAll); err != nil {
		return err
	}
	edit := x.cands[1]
	flip := 0
	// One edit, then the evaluation: the facade's side of what
	// engine.evaluate_delta_ms times on the twin.
	if x.m["designer.evaluate_delta_ms"], err = timed(30, func() error {
		if flip++; flip%2 == 1 {
			if _, err := sess.AddIndex(edit.Table, edit.Columns...); err != nil {
				return err
			}
		} else {
			sess.DropIndex(edit.Key())
		}
		_, err := sess.Evaluate(x.ctx, x.dwAll)
		return err
	}); err != nil {
		return err
	}

	return nil
}

// tuners: colt and autopilot, the probe statements as a stream.
func (x *probes) tuners() error {
	stream := x.wAll.Queries
	tuner := colt.New(x.p.eng, x.p.eng.Base(), colt.DefaultOptions())
	t0 := time.Now()
	if _, err := tuner.ObserveAll(x.ctx, stream); err != nil {
		return err
	}
	x.m["colt.observe_us"] = float64(time.Since(t0).Microseconds()) / float64(len(stream))
	var calls2 float64
	for _, r := range tuner.Reports() {
		calls2 += float64(r.WhatIfCalls)
	}
	x.m["colt.whatif_calls_per_epoch"] = calls2 / float64(max(1, len(tuner.Reports())))
	x.m["colt.alerts"] = float64(len(tuner.Alerts()))
	t0 = time.Now()
	tuner.Close()
	x.m["colt.close_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	ap, err := autopilot.New(x.p.eng, x.p.eng.Base(), autopilot.DefaultOptions())
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, err = ap.ObserveAll(x.ctx, stream)
	x.m["autopilot.observe_us"] = float64(time.Since(t0).Microseconds()) / float64(len(stream))
	if cerr := ap.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	x.m["autopilot.overhead_x"] = x.m["autopilot.observe_us"] / x.m["colt.observe_us"]

	return nil
}

// setup: the layers every workload's set-up goes through.
func (x *probes) setup() error {
	x.m["workload.generate_s"] = x.p.generateS
	// Materialize builds for real, so it gets a designer of its own.
	priv, err := designer.OpenSDSS(dataset, x.seed)
	if err != nil {
		return err
	}
	pw, err := priv.WorkloadFromSQL(x.sqls)
	if err != nil {
		return err
	}
	padv, err := priv.Advise(x.ctx, pw, designer.AdviceOptions{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := priv.Materialize(x.ctx, padv.Indexes); err != nil {
		return err
	}
	x.m["storage.materialize_ms_per_index"] = float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(max(1, len(padv.Indexes)))
	return nil
}

// mipFixture is a fixed 60-variable binary program: a knapsack with a side
// constraint per block of six, so branch-and-bound has real work to do.
func mipFixture() *lp.Problem {
	const n = 60
	p := lp.NewProblem(n)
	weights := map[int]float64{}
	for i := 0; i < n; i++ {
		p.Binary[i] = true
		p.Objective[i] = -float64(3 + (i*7)%11)
		weights[i] = float64(2 + (i*5)%9)
	}
	p.AddConstraint(weights, lp.LE, 97)
	for b := 0; b < n; b += 6 {
		block := map[int]float64{}
		for i := b; i < b+6; i++ {
			block[i] = 1
		}
		p.AddConstraint(block, lp.LE, 3)
	}
	return p
}

// serve times the HTTP layers: the handler alone (into a recorder),
// the same request over loopback, the admission pool's hand-off and the
// session manager's create/close.
func (x *probes) serve() error {
	ctx, d, sqls, w, m := x.ctx, x.d, x.all, x.dwAll, x.m
	srv := serve.New(d)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx) // nothing in flight
	}()
	h := srv.Handler()
	do := func(method, path string, body []byte) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx))
		if rec.Code/100 != 2 {
			return nil, fmt.Errorf("benchmark: %s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
		}
		return rec, nil
	}
	rec, err := do("POST", "/api/v1/sessions", nil)
	if err != nil {
		return err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{"sql": sqls})
	if err != nil {
		return err
	}
	path := "/api/v1/sessions/" + created.ID + "/evaluate"
	if rec, err = do("POST", path, body); err != nil {
		return err
	}
	m["serve.response_kb_per_answer"] = float64(rec.Body.Len()) / 1024
	if m["serve.handler_evaluate_ms"], err = timed(9, func() error {
		_, err := do("POST", path, body)
		return err
	}); err != nil {
		return err
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	loop, err := timed(9, func() error {
		req, err := http.NewRequestWithContext(ctx, "POST", "http://"+srv.Addr()+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("benchmark: loopback evaluate: status %d", resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["serve.loopback_overhead_ms"] = loop - m["serve.handler_evaluate_ms"]
	// The facade call the handler wraps: an unchanged design, asked again.
	sess := d.NewDesignSession()
	if _, err := sess.Evaluate(ctx, w); err != nil {
		return err
	}
	facade, err := timed(9, func() error {
		_, err := sess.Evaluate(ctx, w)
		return err
	})
	if err != nil {
		return err
	}
	m["serve.overhead_x"] = m["serve.handler_evaluate_ms"] / facade

	// admission: one no-op job per caller at a time, as many callers as
	// cores — what a request pays to get a worker when none is contended.
	pool := admission.New(admission.Config{})
	const jobs = 2000
	callers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make([]error, callers)
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				if err := pool.Do(ctx, admission.Interactive, func() {}); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	m["admission.dispatch_us"] = float64(time.Since(t0).Microseconds()) / jobs
	st := pool.Stats()
	m["admission.rejected"] = float64(st.RejectedInteractive + st.RejectedBatch)
	pool.Close()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// sessionmgr
	mgr := sessionmgr.New(sessionmgr.Config{})
	defer mgr.Stop()
	ms, err := timed(9, func() error {
		for i := 0; i < 100; i++ {
			s, err := mgr.Create("probe", i)
			if err != nil {
				return err
			}
			if _, err := mgr.Close(s.ID); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["sessionmgr.create_close_us"] = ms * 1e3 / 100
	var evicted int64
	for _, n := range mgr.EvictedTotals() {
		evicted += n
	}
	m["sessionmgr.evicted"] = float64(evicted)
	return nil
}
