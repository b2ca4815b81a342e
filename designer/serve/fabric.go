package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/designer"
	"repro/designer/serve/admission"
	"repro/designer/serve/metrics"
	"repro/designer/serve/sessionmgr"
)

// This file is the service fabric around the handlers: tenancy
// resolution, admission control for the CPU-heavy verbs, the
// metrics-instrumentation middleware, and the operational endpoints
// (/healthz, /readyz, /metrics).

// defaultTenant is the tenant of requests without an X-Tenant header.
const defaultTenant = "default"

// autopilotDecisionKinds mirrors the supervisor's decision-kind vocabulary
// (designer.AutopilotDecision.Kind) so the decisions_total family shows all
// its series from the first scrape (CI greps for them cold).
var autopilotDecisionKinds = []string{
	"adopt", "skip_cooldown", "build_progress", "materialized",
	"probation_pass", "rollback", "drop",
}

// tenantHeader names the tenancy header.
const tenantHeader = "X-Tenant"

// maxTenantLen bounds tenant names (they become metric label values).
const maxTenantLen = 64

// tenantFrom resolves the request's tenant: the X-Tenant header, made
// valid UTF-8 (a metric label must be), trimmed and cut at the last
// character boundary within maxTenantLen bytes, or the default tenant when
// absent.
func tenantFrom(r *http.Request) string {
	t := strings.TrimSpace(strings.ToValidUTF8(r.Header.Get(tenantHeader), "\uFFFD"))
	if t == "" {
		return defaultTenant
	}
	if len(t) > maxTenantLen {
		n := maxTenantLen
		for !utf8.RuneStart(t[n]) {
			n--
		}
		t = t[:n]
	}
	return t
}

// initFabric builds the session manager, admission pool, and the metric
// families the request path counts. Called by New after options are
// applied.
func (s *Server) initFabric() {
	s.sm = sessionmgr.New(sessionmgr.Config{
		MaxSessions: s.maxSessions,
		TenantQuota: s.tenantQuota,
		TTL:         s.sessionTTL,
		OnEvict: func(ms *sessionmgr.Session, reason sessionmgr.Reason) {
			if sess, ok := ms.Value.(*session); ok {
				s.releaseSession(sess, string(reason))
			}
		},
	})
	s.pool = admission.New(admission.Config{
		Workers:    s.poolSize,
		QueueDepth: s.queueDepth,
		Hold:       s.holdHook,
	})

	s.reg = metrics.NewRegistry()
	s.mReqs = s.reg.Counter("dbdesigner_http_requests_total",
		"HTTP requests by route, method, and status code.", "route", "method", "code")
	s.mDur = s.reg.Histogram("dbdesigner_http_request_duration_seconds",
		"HTTP request latency by route.", metrics.DefBuckets, "route")
	s.mQuotaRejected = s.reg.Counter("dbdesigner_sessions_quota_rejected_total",
		"Session creations rejected by per-tenant quota.").With()
	s.mSessCreated = s.reg.Counter("dbdesigner_sessions_created_total",
		"Sessions created over the server's lifetime.").With()
}

// releaseSession finishes a detached session in the background: once any
// in-flight work drains off the work lock, the payload is marked gone and
// its facade resources dropped. The caller (close handler or eviction
// hook) has already cancelled the session context, so in-flight work is
// aborting rather than running to completion.
func (s *Server) releaseSession(sess *session, reason string) {
	go func() {
		sess.mu.Lock()
		sess.gone = reason
		sess.ds = nil
		sess.lastOpts = designer.AdviceOptions{}
		sess.lastWl.Store(nil)
		sess.evaluated.Store(nil)
		sess.mu.Unlock()
	}()
}

// retryAfterFor is the backoff hint handed out with a 429: interactive
// work drains quickly, batch work may hold workers for a while.
func retryAfterFor(class admission.Class) time.Duration {
	if class == admission.Interactive {
		return time.Second
	}
	return 2 * time.Second
}

// admit runs fn through the bounded worker pool at the given priority and
// returns the error to answer when the pool refuses it (429 on a full
// queue, 503 on shutdown). admit does not return until fn has run or is
// guaranteed never to run, so what fn set is safe to read afterwards.
func (s *Server) admit(r *http.Request, class admission.Class, fn func()) error {
	err := s.pool.Do(r.Context(), class, fn)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, admission.ErrQueueFull):
		return &apiError{status: http.StatusTooManyRequests, code: codeQueueFull, retry: retryAfterFor(class),
			err: fmt.Errorf("server saturated: %s queue is full", class)}
	case errors.Is(err, admission.ErrClosed):
		return errorf(http.StatusServiceUnavailable, codeCancelled, "server shutting down")
	}
	// The request context died while the job was queued; the client is
	// gone, but complete the exchange anyway.
	return &apiError{status: http.StatusServiceUnavailable, code: codeCancelled, err: err}
}

// workCtx merges the request context with the session's lifetime context:
// the returned context cancels when the client disconnects OR the session
// is closed/evicted, so reclaiming a session aborts its in-flight work.
func workCtx(r *http.Request, sess *session) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(sess.ctx, cancel)
	return ctx, func() { stop(); cancel() }
}

// --------------------------------------------------------------------------
// Instrumentation middleware.
// --------------------------------------------------------------------------

// statusWriter captures the response status for metrics while passing
// Flush through (the SSE stream needs it).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// instrument wraps the mux with per-request counting and latency
// histograms, labeled by the matched route pattern (never the raw URL, so
// label cardinality stays bounded).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		route := r.Pattern // set by ServeMux on match; "METHOD /path"
		if i := strings.IndexByte(route, ' '); i >= 0 {
			route = route[i+1:]
		}
		if route == "" {
			route = "unmatched"
		}
		s.mReqs.With(route, r.Method, strconv.Itoa(sw.code)).Inc()
		s.mDur.With(route).Observe(time.Since(start).Seconds())
	})
}

// --------------------------------------------------------------------------
// Operational endpoints.
// --------------------------------------------------------------------------

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(r *http.Request) (int, any, error) {
	return http.StatusOK, map[string]any{"status": "ok"}, nil
}

// handleReadyz is the readiness probe: unready (503) while the admission
// queue is saturated, so a load balancer rotates the instance out before
// it starts bouncing batch work with 429s.
func (s *Server) handleReadyz(r *http.Request) (int, any, error) {
	st := s.pool.Stats()
	if s.pool.Saturated() {
		return 0, nil, &apiError{status: http.StatusServiceUnavailable, code: codeNotReady, retry: retryAfterFor(admission.Batch),
			err: fmt.Errorf("admission queue saturated (%d/%d batch jobs queued)", st.QueuedBatch, st.QueueDepth)}
	}
	return http.StatusOK, map[string]any{
		"status":   "ready",
		"sessions": s.sm.Len(),
		"pool": map[string]any{
			"workers":            st.Workers,
			"running":            st.Running,
			"queued_interactive": st.QueuedInteractive,
			"queued_batch":       st.QueuedBatch,
			"queue_depth":        st.QueueDepth,
		},
	}, nil
}

// handleMetrics scrapes the registry in Prometheus text format. The
// counters the request path increments are read as they are; every sampled
// family is registered and set here from one read of its owner — the pool,
// the session manager, the engine cache, and one reading of the tuner slot,
// so the autopilot families agree with each other. Registering a family
// again returns the same one.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	gauge := func(name, help string, v float64) { s.reg.Gauge(name, help).With().Set(v) }
	counter := func(name, help string, v float64) { s.reg.Counter(name, help).With().Set(v) }

	st := s.pool.Stats()
	queued := s.reg.Gauge("dbdesigner_admission_queue_depth",
		"Jobs waiting in the admission queue by priority class.", "class")
	queued.With(admission.Interactive.String()).Set(float64(st.QueuedInteractive))
	queued.With(admission.Batch.String()).Set(float64(st.QueuedBatch))
	gauge("dbdesigner_admission_running", "Jobs currently executing in the worker pool.", float64(st.Running))
	// The pool owns the monotonic rejection totals; mirror them.
	rejected := s.reg.Counter("dbdesigner_admission_rejected_total",
		"Queue-full rejections by priority class.", "class")
	rejected.With(admission.Interactive.String()).Set(float64(st.RejectedInteractive))
	rejected.With(admission.Batch.String()).Set(float64(st.RejectedBatch))

	evicted := s.reg.Counter("dbdesigner_sessions_evicted_total",
		"Sessions reclaimed by the manager, by reason (ttl, lru).", "reason")
	evictions := s.sm.EvictedTotals()
	for _, reason := range []sessionmgr.Reason{sessionmgr.ReasonTTL, sessionmgr.ReasonLRU} {
		evicted.With(string(reason)).Set(float64(evictions[reason]))
	}
	active := s.reg.Gauge("dbdesigner_sessions_active", "Live sessions by tenant.", "tenant")
	active.Reset()
	tenants := s.sm.Tenants()
	if len(tenants) == 0 {
		tenants[defaultTenant] = 0
	}
	for tenant, n := range tenants {
		active.With(tenant).Set(float64(n))
	}

	cs := s.d.CacheStats()
	counter("dbdesigner_engine_cache_full_optimizations_total",
		"Full optimizer runs spent building costing-cache entries, over the engine's life.", float64(cs.FullOptimizations))
	counter("dbdesigner_engine_cache_cached_costings_total",
		"Costings answered from the costing cache, over the engine's life.", float64(cs.CachedCostings))
	counter("dbdesigner_engine_plan_searches_total",
		"Full plan searches run outside the costing cache (what-if evaluations, full-cost baselines), over the engine's life.", float64(cs.PlanSearches))

	// The autopilot owns its monotonic totals; mirror the slot's reading.
	tv := s.tunerView.Load()
	ap := tv.status
	on := 0.0
	if tv.autopilot {
		on = 1
	}
	gauge("dbdesigner_autopilot_active", "1 while the autopilot supervises the tuner slot, 0 otherwise.", on)
	gauge("dbdesigner_autopilot_epoch", "Observation epochs completed by the supervised tuner.", float64(ap.Epoch))
	gauge("dbdesigner_autopilot_regret_pct", "Latest sampled regret versus the oracle-best design, percent.", ap.RegretPct)
	counter("dbdesigner_autopilot_builds_completed_total",
		"Background index builds materialized by the autopilot.", float64(ap.BuildsCompleted))
	counter("dbdesigner_autopilot_rollbacks_total",
		"Indexes rolled back after underperforming their what-if promise.", float64(ap.Rollbacks))
	counter("dbdesigner_autopilot_build_pages_total",
		"Pages of background materialization work performed.", float64(ap.BuildPages))
	pending := s.reg.Gauge("dbdesigner_autopilot_pending",
		"Builds queued or in flight, and indexes under probation.", "stage")
	pending.With("build").Set(float64(len(ap.Builds)))
	pending.With("probation").Set(float64(len(ap.Probation)))
	kindCounts := make(map[string]int)
	for _, d := range tv.decisions {
		kindCounts[d.Kind]++
	}
	decisions := s.reg.Counter("dbdesigner_autopilot_decisions_total", "Journaled autopilot decisions by kind.", "kind")
	for _, kind := range autopilotDecisionKinds {
		decisions.With(kind).Set(float64(kindCounts[kind]))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.reg.WritePrometheus(w)
}
