// Package serve exposes the designer's v2 facade as a JSON-over-HTTP
// service — the wire form of the paper's interactive interface, and the
// piece that makes the designer consumable from outside the Go module
// entirely. It is deliberately built on nothing but the public designer
// API: if serve can do it over HTTP, any external client can.
//
// The full route listing lives in openapi.yaml next to this file (kept
// in lockstep by a route-parity test). In outline: design sessions
// (create/list/detail/close, index and partition edits, evaluate,
// explain, advise, readvise), automatic advice and materialization, the
// online tuner (create/observe/status/SSE stream), schema and cache
// introspection, and the operational endpoints /healthz, /readyz, and
// /metrics.
//
// The service is multi-tenant: requests carry an X-Tenant header (a
// default tenant applies when absent), sessions are owned by the
// sessionmgr layer (LRU + TTL eviction, per-tenant quotas, IDs minted
// there), and the CPU-heavy verbs run through a bounded admission pool
// in two priority classes — interactive what-if work jumps the queue
// ahead of batch advise/materialize, and a full queue answers 429 with
// Retry-After instead of accumulating goroutines. Every error response
// carries the stable envelope {"error":{"code","message"[,"retry_after_ms"]}}.
//
// Every long-running handler threads the request context — merged with
// the session's lifetime context — into the facade, so a disconnected
// client or a reclaimed session cancels its advisor run mid-sweep.
// Design sessions are isolated on pinned engine generations: a
// concurrent /materialize does not tear an open session's evaluations.
//
// Four rules are spelled once each. Every JSON route has one shape, a
// route: it returns a status and a body, or an error, and writeError is the
// only error reply — an *apiError carries its own status and code, and any
// other error maps to 503 cancelled or 400 invalid_request. Every
// session-scoped verb runs through sessionVerb, which owns session lookup,
// decoding and the work lock, so a DesignSession is only ever touched locked
// and live. A request body is read into a pooled buffer that goes back to
// the pool once the route has answered, so nothing a verb keeps may point
// into it. The online tuner lives in one slot (a plain tuner or the
// autopilot supervising one) whose holder publishes an immutable reading
// after every change; the status routes, the SSE stream and /metrics answer
// from that reading alone and never wait on an observation in flight.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/designer"
	"repro/designer/serve/admission"
	"repro/designer/serve/metrics"
	"repro/designer/serve/sessionmgr"
)

// Server is the HTTP front-end over one designer.
type Server struct {
	d       *designer.Designer
	mux     *http.ServeMux
	handler http.Handler
	httpSrv *http.Server
	ln      net.Listener
	done    chan struct{}
	// closing is closed at the start of Shutdown so long-lived streaming
	// handlers (SSE) exit instead of holding graceful shutdown hostage.
	closing   chan struct{}
	closeOnce sync.Once

	// Fabric sizing (options; defaults applied in New).
	maxSessions int
	sessionTTL  time.Duration
	tenantQuota int
	poolSize    int
	queueDepth  int
	holdHook    func(context.Context)

	// sm owns session lifetime: minting, LRU/TTL eviction, quotas.
	// Handlers never hold a session table of their own.
	sm *sessionmgr.Manager
	// pool is the bounded admission-controlled worker pool for the
	// CPU-heavy verbs.
	pool *admission.Pool

	// Metrics (fabric.go): the families the request path counts. Every
	// sampled family is registered where /metrics reads it.
	reg            *metrics.Registry
	mReqs          *metrics.CounterVec
	mDur           *metrics.HistogramVec
	mQuotaRejected *metrics.Counter
	mSessCreated   *metrics.Counter

	// tunerMu guards the tuner slot and every call into its occupant: the
	// COLT tuner serializes observation, so the server serializes access.
	// occupant is what observes — a *designer.Tuner, or the
	// *designer.Autopilot supervising one (observations then flow through
	// the closed loop) — and nil before POST /tuner and after the autopilot
	// is stopped. tunerOpts are the options the occupant was built with; an
	// autopilot started over HTTP inherits them.
	tunerMu   sync.Mutex
	occupant  observer
	tunerOpts designer.TunerOptions

	// tunerView is the slot's published reading: whoever changes the slot or
	// finishes an observation batch builds a fresh immutable view under
	// tunerMu and stores it here, and every reader takes one Load() — so
	// /tuner/status, the SSE stream and /metrics never block behind a
	// long-running ObserveAll, and never see two halves of two states.
	tunerView atomic.Pointer[tunerView]
	// observed counts the statements /tuner/observe has parsed; each is
	// labelled by its position in that stream. The labels only name
	// statements to a reader: costing keys a statement by its text, so two
	// that shared a label would still be priced apart.
	observed atomic.Int64
}

// goneClosed marks a session released by an explicit DELETE (as opposed
// to a manager eviction reason).
const goneClosed = "closed"

// session is one HTTP what-if design session — the payload the session
// manager carries. Its DesignSession is pinned to the engine generation
// current at creation time.
//
// mu serializes the DesignSession itself (evaluations can run for
// seconds); metaMu guards only the cheap index-key snapshot so listing
// endpoints never block behind an in-flight Evaluate.
type session struct {
	id      string
	tenant  string
	created time.Time
	// backend is the session's cost-backend kind, fixed at creation.
	backend string
	// ctx is the session's lifetime context (from the manager); it is
	// cancelled when the session is closed or evicted, aborting in-flight
	// facade work.
	ctx context.Context

	mu sync.Mutex
	ds *designer.DesignSession
	// gone is set (under mu) once the session's resources are released —
	// goneClosed after DELETE, or the eviction reason. A handler that
	// raced the release answers from it instead of touching a nil ds.
	gone string

	// lastOpts/lastWl remember the most recent advise question so an
	// empty-body /readvise repeats it. Written under mu like the session;
	// lastWl is also read outside it, to match a request's "sql" against.
	// Neither holds the request, whose "sql" is a slice of a pooled body
	// buffer that the next request reuses.
	lastOpts designer.AdviceOptions
	lastWl   atomic.Pointer[designer.Workload]
	// evaluated is the workload the session's delta state prices,
	// published after each evaluate: the next evaluate whose "sql" lists
	// the same statements is resolved to it outside the work lock
	// (Server.workload). It wraps the state's own queries.
	evaluated atomic.Pointer[designer.Workload]

	metaMu sync.Mutex
	keys   []string
}

// indexKeys snapshots the session's design keys without the work lock
// (never nil).
func (sess *session) indexKeys() []string {
	sess.metaMu.Lock()
	defer sess.metaMu.Unlock()
	return append([]string{}, sess.keys...)
}

func (sess *session) addKey(key string) {
	sess.metaMu.Lock()
	defer sess.metaMu.Unlock()
	sess.keys = append(sess.keys, key)
}

func (sess *session) dropKey(key string) {
	sess.metaMu.Lock()
	defer sess.metaMu.Unlock()
	for i, k := range sess.keys {
		if k == key {
			sess.keys = append(sess.keys[:i], sess.keys[i+1:]...)
			return
		}
	}
}

// lockLive acquires the session work lock on a live session. On a session
// whose resources were already released it returns the error to answer and
// does not hold the lock.
func (sess *session) lockLive() error {
	sess.mu.Lock()
	gone := sess.gone
	if gone == "" {
		return nil
	}
	sess.mu.Unlock()
	if gone == goneClosed {
		return errorf(http.StatusNotFound, codeSessionNotFound, "session %q is closed", sess.id)
	}
	return evictedError(sess.id, gone)
}

// Option configures a Server at construction time.
type Option func(*Server)

// WithMaxSessions caps live sessions globally; at the cap, creating a
// session evicts the least-recently-used one (it answers 410 afterwards).
// <=0 keeps the default (1024).
func WithMaxSessions(n int) Option {
	return func(s *Server) { s.maxSessions = n }
}

// WithSessionTTL sets the idle timeout after which a session is
// reclaimed. <=0 disables expiry; the default is 30 minutes.
func WithSessionTTL(ttl time.Duration) Option {
	return func(s *Server) { s.sessionTTL = ttl }
}

// WithTenantQuota caps live sessions per tenant (X-Tenant header);
// at the quota, session creation answers 429 quota_exceeded. <=0
// disables per-tenant quotas (the default).
func WithTenantQuota(n int) Option {
	return func(s *Server) { s.tenantQuota = n }
}

// WithPoolSize sets the number of concurrently executing CPU-heavy
// requests (advise, readvise, evaluate, explain, materialize). <=0
// defaults to GOMAXPROCS.
func WithPoolSize(n int) Option {
	return func(s *Server) { s.poolSize = n }
}

// WithQueueDepth bounds each priority class's admission queue; a full
// queue answers 429 queue_full with Retry-After. <=0 defaults to 64.
func WithQueueDepth(n int) Option {
	return func(s *Server) { s.queueDepth = n }
}

// New creates a server over the designer.
func New(d *designer.Designer, opts ...Option) *Server {
	s := &Server{
		d:           d,
		mux:         http.NewServeMux(),
		done:        make(chan struct{}),
		closing:     make(chan struct{}),
		maxSessions: 1024,
		sessionTTL:  30 * time.Minute,
	}
	s.tunerView.Store(&tunerView{})
	for _, opt := range opts {
		opt(s)
	}
	s.initFabric()
	for _, rt := range s.routeTable() {
		s.mux.Handle(rt.method+" "+rt.pattern, rt.h)
	}
	s.handler = s.instrument(s.mux)
	return s
}

// Handler returns the server's instrumented HTTP handler (for tests and
// embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Start binds addr (use host:0 for an ephemeral port) and serves in the
// background until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.handler}
	go func() {
		defer close(s.done)
		// Serve returns http.ErrServerClosed after Shutdown; a fatal accept
		// error also ends the loop. Either way closing done unblocks
		// Shutdown's drain wait, which reports the interesting part.
		_ = s.httpSrv.Serve(ln)
	}()
	return nil
}

// Addr reports the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests get until ctx expires to finish, then the admission
// pool and session manager wind down.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.httpSrv == nil {
		return nil
	}
	s.closeOnce.Do(func() { close(s.closing) })
	err := s.httpSrv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	if err == nil {
		// All handlers drained; the pool is idle and safe to close. On a
		// dirty shutdown (ctx expired with work in flight) leave it running
		// rather than block past the caller's deadline.
		s.pool.Close()
		// Retire the tuner slot too: closing the autopilot persists its
		// state (when a state path is configured), which is what makes
		// `dbdesigner tune --server` resumable across SIGTERM. Skipped on
		// dirty shutdowns — an in-flight observe could hold tunerMu past
		// the caller's deadline.
		s.tunerMu.Lock()
		_, _ = s.seatTuner(nil, false) // winding down: nobody is left to tell
		s.tunerMu.Unlock()
	}
	s.sm.Stop()
	return err
}

// StartAutopilot programmatically configures the tuner slot with a
// supervised autopilot — the in-process form of POST /api/v1/tuner
// followed by POST /api/v1/tuners/{id}/autopilot, used by `dbdesigner
// tune --server` to come up already tuning (and, with a state path,
// already resumed). Any existing tuner or autopilot is replaced. Returns
// the new tuner id the HTTP autopilot routes address.
func (s *Server) StartAutopilot(topts designer.TunerOptions, aopts designer.AutopilotOptions) (string, error) {
	s.tunerMu.Lock()
	defer s.tunerMu.Unlock()
	v, err := s.seatAutopilot(topts, aopts, true)
	if err != nil {
		return "", err
	}
	return v.id(), nil
}

// route is the one shape of a JSON endpoint: it answers a status and the
// body to encode, or an error for writeError.
type route func(r *http.Request) (int, any, error)

func (rt route) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		body := bodies.Get().(*requestBody)
		body.ReadCloser, r.Body = r.Body, body
		defer body.release(r)
	}
	status, reply, err := rt(r)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, status, reply)
}

// withBody decodes the request's one-object body into a fresh T and hands
// it to h; a body that does not decode is a 400.
func withBody[T any](h func(r *http.Request, req *T) (int, any, error)) route {
	return func(r *http.Request) (int, any, error) {
		var req T
		if err := readJSON(r, &req); err != nil {
			return 0, nil, err
		}
		return h(r, &req)
	}
}

// pooled runs a route through the admission pool at the given priority.
func (s *Server) pooled(class admission.Class, h route) route {
	return func(r *http.Request) (status int, body any, err error) {
		if refused := s.admit(r, class, func() { status, body, err = h(r) }); refused != nil {
			return 0, nil, refused
		}
		return status, body, err
	}
}

// endpoint is one registered route. The table is the single source of
// truth for the mux, the openapi.yaml parity test, and (via pooled
// wrappers) admission control.
type endpoint struct {
	method  string
	pattern string
	h       http.Handler
}

// routeTable lists every endpoint. Interactive what-if verbs (index
// add/drop, partitions, evaluate, explain, readvise) are admitted ahead
// of batch work (advise, materialize); control-plane and read-only
// endpoints bypass the pool entirely.
func (s *Server) routeTable() []endpoint {
	return []endpoint{
		{method: "GET", pattern: "/healthz", h: route(s.handleHealthz)},
		{method: "GET", pattern: "/readyz", h: route(s.handleReadyz)},
		{method: "GET", pattern: "/metrics", h: http.HandlerFunc(s.handleMetrics)},
		{method: "GET", pattern: "/api/v1/schema", h: route(s.handleSchema)},
		{method: "GET", pattern: "/api/v1/stats", h: route(s.handleStats)},
		{method: "POST", pattern: "/api/v1/sessions", h: withBody(s.handleSessionCreate)},
		{method: "GET", pattern: "/api/v1/sessions", h: route(s.handleSessionList)},
		{method: "GET", pattern: "/api/v1/sessions/{id}", h: route(s.handleSessionGet)},
		{method: "DELETE", pattern: "/api/v1/sessions/{id}", h: route(s.handleSessionClose)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/indexes", h: s.pooled(admission.Interactive, s.handleSessionAddIndex)},
		{method: "DELETE", pattern: "/api/v1/sessions/{id}/indexes", h: s.pooled(admission.Interactive, s.handleSessionDropIndex)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/partitions/vertical", h: s.pooled(admission.Interactive, s.handleSessionVertical)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/partitions/horizontal", h: s.pooled(admission.Interactive, s.handleSessionHorizontal)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/evaluate", h: s.pooled(admission.Interactive, s.handleSessionEvaluate)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/explain", h: s.pooled(admission.Interactive, s.handleSessionExplain)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/advise", h: s.pooled(admission.Batch, s.handleSessionAdvise)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/readvise", h: s.pooled(admission.Interactive, s.handleSessionReadvise)},
		{method: "POST", pattern: "/api/v1/advise", h: s.pooled(admission.Batch, withBody(s.handleAdvise))},
		{method: "POST", pattern: "/api/v1/materialize", h: s.pooled(admission.Batch, withBody(s.handleMaterialize))},
		{method: "POST", pattern: "/api/v1/tuner", h: withBody(s.handleTunerCreate)},
		{method: "POST", pattern: "/api/v1/tuner/observe", h: withBody(s.handleTunerObserve)},
		{method: "GET", pattern: "/api/v1/tuner/status", h: route(s.handleTunerStatus)},
		{method: "GET", pattern: "/api/v1/tuner/stream", h: http.HandlerFunc(s.handleTunerStream)},
		{method: "POST", pattern: "/api/v1/tuners/{id}/autopilot", h: s.pooled(admission.Batch, withBody(s.handleAutopilotStart))},
		{method: "GET", pattern: "/api/v1/tuners/{id}/autopilot", h: route(s.handleAutopilotStatus)},
		{method: "DELETE", pattern: "/api/v1/tuners/{id}/autopilot", h: route(s.handleAutopilotStop)},
	}
}

// --------------------------------------------------------------------------
// Wire DTOs.
// --------------------------------------------------------------------------

type indexJSON struct {
	Key     string   `json:"key"`
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
	// Kind is empty for plain secondary indexes; "projection" and "aggview"
	// mark the wider design structures (their extra shape rides in the
	// include/aggs/estimated_rows fields below).
	Kind           string   `json:"kind,omitempty"`
	Include        []string `json:"include,omitempty"`
	Aggs           []string `json:"aggs,omitempty"`
	EstimatedRows  int64    `json:"estimated_rows,omitempty"`
	EstimatedPages int64    `json:"estimated_pages"`
	Hypothetical   bool     `json:"hypothetical"`
}

func toIndexJSON(ix designer.Index) indexJSON {
	return indexJSON{
		Key:            ix.Key(),
		Table:          ix.Table,
		Columns:        ix.Columns,
		Kind:           ix.Kind,
		Include:        ix.Include,
		Aggs:           ix.Aggs,
		EstimatedRows:  ix.EstimatedRows,
		EstimatedPages: ix.EstimatedPages,
		Hypothetical:   ix.Hypothetical,
	}
}

func toIndexesJSON(ixs []designer.Index) []indexJSON {
	out := make([]indexJSON, len(ixs))
	for i, ix := range ixs {
		out[i] = toIndexJSON(ix)
	}
	return out
}

type workloadJSON struct {
	// SQL lists explicit SELECT statements (weight 1 each), kept as the
	// body's raw JSON until a workload is resolved from it.
	SQL sqlList `json:"sql,omitempty"`
	// Queries/Seed draw a generated SDSS workload when SQL is empty.
	Queries int   `json:"queries,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
}

// maxGeneratedQueries caps a request's "queries": the body is capped at
// 1 MiB, but a count in it asks the server to generate and parse that
// many statements.
const maxGeneratedQueries = 10000

// workload resolves the request's workload description. A "sql" list that
// names exactly the statements of held — a workload the session already
// holds, or nil — resolves to held, and none of its texts is decoded; any
// other list is decoded and parsed as WorkloadFromSQL does. The two are the
// same workload, so the answer does not depend on which path ran.
func (s *Server) workload(req workloadJSON, held *designer.Workload) (*designer.Workload, error) {
	switch {
	case !req.SQL.empty():
		if held != nil && req.SQL.matchesHeld(held) {
			return held, nil
		}
		var sqls []string
		if err := json.Unmarshal(req.SQL, &sqls); err != nil {
			return nil, err
		}
		return s.d.WorkloadFromSQL(sqls)
	case req.Queries < 0:
		return nil, fmt.Errorf("queries %d: a generated workload cannot have a negative size", req.Queries)
	case req.Queries > maxGeneratedQueries:
		return nil, fmt.Errorf("queries %d: at most %d generated statements a request", req.Queries, maxGeneratedQueries)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 2
	}
	return s.d.GenerateWorkload(seed, orDefault(req.Queries, 16))
}

// orDefault is a request's optional count or size: v when positive, else
// the default.
func orDefault[T int | int64 | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// --------------------------------------------------------------------------
// Plumbing.
// --------------------------------------------------------------------------

// maxBodyBytes caps a request body.
const maxBodyBytes = 1 << 20

// readJSON decodes the request body, one JSON object, into v: an empty body
// (or white space) is a valid "all defaults" request, and anything after the
// object is refused. The body is read once into a pooled buffer (readBody)
// and decoded in one pass; a streaming decoder would double its own buffer
// past the body's size while it filled it. What v keeps of the body beyond
// copies — a raw sqlList — lives until the verb returns and its reply is
// written; then the buffer, and those bytes, serve another request.
func readJSON(r *http.Request, v any) error {
	if r.Body == nil {
		return nil
	}
	body, err := readBody(r)
	if err == nil && len(bytes.TrimSpace(body)) > 0 {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// requestBody is a JSON route's request body: the client's stream, and
// the pooled buffer readBody reads it into. route.ServeHTTP takes one from
// bodies before the verb runs and puts it back after the reply is written.
type requestBody struct {
	io.ReadCloser
	buf []byte
}

// bodies pools request bodies. A buffer keeps the capacity its largest
// request gave it, up to maxBodyBytes and a byte.
var bodies = sync.Pool{New: func() any { return new(requestBody) }}

// scribble, set only by tests, makes release overwrite a buffer before it
// goes back to the pool, so a reader that outlived its request reads
// garbage.
var scribble atomic.Bool

// release hands r its own body back and returns the buffer to the pool.
func (b *requestBody) release(r *http.Request) {
	r.Body, b.ReadCloser = b.ReadCloser, nil
	if scribble.Load() {
		buf := b.buf[:cap(b.buf)]
		for i := range buf {
			buf[i] = '#'
		}
	}
	b.buf = b.buf[:0]
	if cap(b.buf) > maxBodyBytes+1 {
		b.buf = nil // a refused chunked body grew it past any body read whole
	}
	bodies.Put(b)
}

// readBody reads the whole body, at most maxBodyBytes of it, into the
// route's pooled buffer (a fresh one outside a route). A declared length
// larger than the buffer sizes a new one with one byte to spare, so the
// read that finds the end needs no growth; a chunked body grows it as
// io.ReadAll would.
func readBody(r *http.Request) ([]byte, error) {
	b, ok := r.Body.(*requestBody)
	if !ok {
		b = &requestBody{ReadCloser: r.Body}
	}
	if size := r.ContentLength + 1; size > int64(cap(b.buf)) && size <= maxBodyBytes+1 {
		b.buf = make([]byte, 0, size)
	} else if cap(b.buf) == 0 {
		b.buf = make([]byte, 0, 512)
	}
	body := http.MaxBytesReader(nil, b.ReadCloser, maxBodyBytes)
	for {
		n, err := body.Read(b.buf[len(b.buf):cap(b.buf)])
		b.buf = b.buf[:len(b.buf)+n]
		if errors.Is(err, io.EOF) {
			return b.buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b.buf) == cap(b.buf) {
			b.buf = append(b.buf, 0)[:len(b.buf)]
		}
	}
}

// session resolves the request's session through the manager: 404 for
// unknown/closed IDs or another tenant's session (existence is not
// leaked across tenants), 410 for one the manager reclaimed.
func (s *Server) session(r *http.Request) (*session, error) {
	id := r.PathValue("id")
	ms, err := s.sm.Get(id)
	if err == nil && ms.Value.(*session).tenant == tenantFrom(r) {
		return ms.Value.(*session), nil
	}
	return nil, lookupError(id, err)
}

// lookupError answers an id that names no live session of the caller's:
// 410 for one the manager evicted, 404 otherwise.
func lookupError(id string, err error) error {
	var ev *sessionmgr.EvictedError
	if errors.As(err, &ev) {
		return evictedError(id, string(ev.Reason))
	}
	return errorf(http.StatusNotFound, codeSessionNotFound, "no such session %q", id)
}

func evictedError(id, reason string) error {
	return errorf(http.StatusGone, codeSessionEvicted, "session %q was evicted (%s); create a new session", id, reason)
}

// sessionVerb is the one shape of a session-scoped route; a verb is its
// request struct plus the lines that differ. It resolves the request's
// session (404/410), decodes the body into req (nil: the verb has none) and
// runs check — the verb's validation and parsing, outside the work lock: a
// 960-statement WorkloadFromSQL must not hold it, so check reads only what
// the session publishes for it. It then takes the work
// lock on a live session, hands run the locked session under the merged
// request/session context, unlocks, and answers run's body with status or
// its error. A verb never sees the lock or the gone flag, so it cannot
// forget the unlock or touch a released DesignSession.
func (s *Server) sessionVerb(r *http.Request, req any, status int,
	check func(sess *session) error, run func(ctx context.Context, sess *session) (any, error)) (int, any, error) {
	sess, err := s.session(r)
	if err == nil && req != nil {
		err = readJSON(r, req)
	}
	if err == nil && check != nil {
		err = check(sess)
	}
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := workCtx(r, sess)
	defer cancel()
	if err := sess.lockLive(); err != nil {
		return 0, nil, err
	}
	body, err := run(ctx, sess)
	sess.mu.Unlock()
	return status, body, err
}

// --------------------------------------------------------------------------
// Handlers: schema, stats.
// --------------------------------------------------------------------------

func (s *Server) handleSchema(r *http.Request) (int, any, error) {
	type columnJSON struct {
		Name       string `json:"name"`
		Type       string `json:"type"`
		PrimaryKey bool   `json:"primary_key,omitempty"`
	}
	type tableJSON struct {
		Name     string       `json:"name"`
		RowCount int64        `json:"row_count"`
		Pages    int64        `json:"pages"`
		Columns  []columnJSON `json:"columns"`
	}
	info := s.d.Describe()
	var out []tableJSON
	for _, t := range info.Tables {
		tj := tableJSON{Name: t.Name, RowCount: t.RowCount, Pages: t.Pages}
		for _, c := range t.Columns {
			tj.Columns = append(tj.Columns, columnJSON{Name: c.Name, Type: c.Type, PrimaryKey: c.PrimaryKey})
		}
		out = append(out, tj)
	}
	return http.StatusOK, map[string]any{
		"backend": map[string]any{"kind": info.Backend.Kind, "description": info.Backend.Description},
		"tables":  out,
	}, nil
}

func (s *Server) handleStats(r *http.Request) (int, any, error) {
	cs := s.d.CacheStats()
	return http.StatusOK, map[string]any{
		"full_optimizations": cs.FullOptimizations,
		"cached_costings":    cs.CachedCostings,
	}, nil
}

// --------------------------------------------------------------------------
// Handlers: what-if design sessions (Scenario 1 over the wire).
// --------------------------------------------------------------------------

type sessionCreateJSON struct {
	// Backend prices this session through a different cost backend
	// ("native", "calibrated", "live"); empty inherits the designer's.
	Backend string `json:"backend,omitempty"`
	// DSN connects a "live" session's cost model to a PostgreSQL server:
	// the constants are fitted from its pg_settings at create time.
	DSN string `json:"dsn,omitempty"`
	// LiveTrace points a "live" session at a server-side recorded livedb
	// trace instead of a running server.
	LiveTrace string `json:"live_trace,omitempty"`
}

func (s *Server) handleSessionCreate(r *http.Request, req *sessionCreateJSON) (int, any, error) {
	tenant := tenantFrom(r)
	// Build the session (which pins an engine generation and may briefly
	// wait on the designer's store lock) before registering it: the
	// manager's lock protects only ID allocation and the table insert, so
	// a slow Materialize can never stall /healthz or session lookups.
	ds, err := s.d.NewDesignSessionWith(designer.SessionOptions{
		Backend: designer.BackendSpec{Kind: req.Backend, DSN: req.DSN, LiveTraceFile: req.LiveTrace},
	})
	if err != nil {
		// A backend the designer cannot build (unknown kind, dsn/live_trace
		// without the live kind, an unreachable server) is a caller error.
		return 0, nil, &apiError{status: http.StatusBadRequest, code: codeInvalidRequest, err: err}
	}
	// The cheap key snapshot is seeded from the full design (base materialized
	// indexes included) so the list and detail endpoints agree.
	sess := &session{tenant: tenant, backend: ds.Backend().Kind, ds: ds, keys: keysOf(ds.Config().Indexes())}
	ms, err := s.sm.Create(tenant, sess)
	if errors.Is(err, sessionmgr.ErrQuotaExceeded) {
		s.mQuotaRejected.Inc()
		return 0, nil, &apiError{status: http.StatusTooManyRequests, code: codeQuotaExceeded, retry: 10 * time.Second,
			err: fmt.Errorf("tenant %q is at its session quota (%d); close a session or retry later", tenant, s.tenantQuota)}
	}
	if err != nil {
		return 0, nil, &apiError{status: http.StatusInternalServerError, code: codeInternal, err: err}
	}
	sess.id, sess.created, sess.ctx = ms.ID, ms.Created, ms.Context()
	s.mSessCreated.Inc()
	return http.StatusCreated, map[string]any{"id": ms.ID, "backend": sess.backend, "tenant": tenant}, nil
}

// maxListLimit caps one page of the session listing.
const maxListLimit = 1000

func (s *Server) handleSessionList(r *http.Request) (int, any, error) {
	type sessionJSON struct {
		ID      string   `json:"id"`
		Tenant  string   `json:"tenant"`
		Created string   `json:"created"`
		Backend string   `json:"backend"`
		Indexes []string `json:"indexes"`
	}
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return 0, nil, fmt.Errorf("invalid limit %q: want a positive integer", v)
		}
		if n > maxListLimit {
			n = maxListLimit
		}
		limit = n
	}
	page, next, err := s.sm.Page(q.Get("tenant"), q.Get("cursor"), limit)
	if err != nil {
		return 0, nil, fmt.Errorf("invalid cursor %q", q.Get("cursor"))
	}
	out := []sessionJSON{}
	for _, ms := range page {
		sess, ok := ms.Value.(*session)
		if !ok {
			continue
		}
		sj := sessionJSON{
			ID: ms.ID, Tenant: ms.Tenant,
			Created: ms.Created.UTC().Format(time.RFC3339),
			Backend: sess.backend, Indexes: sess.indexKeys(),
		}
		out = append(out, sj)
	}
	resp := map[string]any{"sessions": out}
	if next != "" {
		resp["next_cursor"] = next
	}
	return http.StatusOK, resp, nil
}

func (s *Server) handleSessionGet(r *http.Request) (int, any, error) {
	return s.sessionVerb(r, nil, http.StatusOK, nil, func(_ context.Context, sess *session) (any, error) {
		return map[string]any{
			"id":      sess.id,
			"tenant":  sess.tenant,
			"created": sess.created.UTC().Format(time.RFC3339),
			"backend": sess.backend,
			"indexes": toIndexesJSON(sess.ds.Config().Indexes()),
		}, nil
	})
}

// handleSessionClose detaches the session from the manager immediately —
// even while a long evaluate/advise holds its work lock — cancels its
// in-flight work through the session context, and releases resources
// asynchronously once the work drains.
func (s *Server) handleSessionClose(r *http.Request) (int, any, error) {
	sess, err := s.session(r)
	if err != nil {
		return 0, nil, err
	}
	id := r.PathValue("id")
	if _, err := s.sm.Close(id); err != nil {
		// Raced an eviction or another close between Get and Close.
		return 0, nil, lookupError(id, err)
	}
	s.releaseSession(sess, goneClosed)
	return http.StatusOK, map[string]any{"closed": id}, nil
}

func (s *Server) handleSessionAddIndex(r *http.Request) (int, any, error) {
	var req struct {
		Table   string   `json:"table"`
		Columns []string `json:"columns"`
		// Include turns the structure into a covering projection; Aggs into a
		// single-table aggregate view (Columns then hold the group keys).
		// They are mutually exclusive; both empty adds a plain index.
		Include []string `json:"include,omitempty"`
		Aggs    []string `json:"aggs,omitempty"`
	}
	return s.sessionVerb(r, &req, http.StatusCreated, func(*session) error {
		if len(req.Include) > 0 && len(req.Aggs) > 0 {
			return errors.New("include and aggs are mutually exclusive")
		}
		return nil
	}, func(_ context.Context, sess *session) (any, error) {
		var ix designer.Index
		var err error
		switch {
		case len(req.Include) > 0:
			ix, err = sess.ds.AddProjection(req.Table, req.Columns, req.Include)
		case len(req.Aggs) > 0:
			ix, err = sess.ds.AddAggView(req.Table, req.Columns, req.Aggs)
		default:
			ix, err = sess.ds.AddIndex(req.Table, req.Columns...)
		}
		if err != nil {
			return nil, err
		}
		// Update the key snapshot inside the work lock so it can never
		// desync from the design under concurrent add/drop of one key.
		sess.addKey(ix.Key())
		return toIndexJSON(ix), nil
	})
}

func (s *Server) handleSessionDropIndex(r *http.Request) (int, any, error) {
	key := r.URL.Query().Get("key")
	return s.sessionVerb(r, nil, http.StatusOK, func(*session) error {
		if key == "" {
			return errors.New("missing ?key=table(col,...)")
		}
		return nil
	}, func(_ context.Context, sess *session) (any, error) {
		if !sess.ds.DropIndex(key) {
			return nil, errorf(http.StatusNotFound, codeIndexNotFound, "index %q not in the design", key)
		}
		sess.dropKey(strings.ToLower(key))
		return map[string]any{"dropped": key}, nil
	})
}

func (s *Server) handleSessionVertical(r *http.Request) (int, any, error) {
	var req struct {
		Table     string     `json:"table"`
		Fragments [][]string `json:"fragments"`
	}
	return s.sessionVerb(r, &req, http.StatusCreated, nil, func(_ context.Context, sess *session) (any, error) {
		err := sess.ds.AddVerticalPartition(req.Table, req.Fragments)
		return map[string]any{"table": req.Table, "fragments": len(req.Fragments)}, err
	})
}

func (s *Server) handleSessionHorizontal(r *http.Request) (int, any, error) {
	var req struct {
		Table     string `json:"table"`
		Column    string `json:"column"`
		Fragments int    `json:"fragments"`
	}
	return s.sessionVerb(r, &req, http.StatusCreated, nil, func(_ context.Context, sess *session) (any, error) {
		err := sess.ds.AddHorizontalPartition(req.Table, req.Column, req.Fragments)
		return map[string]any{"table": req.Table, "column": req.Column, "fragments": req.Fragments}, err
	})
}

func (s *Server) handleSessionEvaluate(r *http.Request) (int, any, error) {
	var req workloadJSON
	var wl *designer.Workload
	return s.sessionVerb(r, &req, http.StatusOK, func(sess *session) (err error) {
		wl, err = s.workload(req, sess.evaluated.Load())
		return err
	}, func(ctx context.Context, sess *session) (any, error) {
		rep, err := sess.ds.Evaluate(ctx, wl)
		sess.evaluated.Store(sess.ds.EvaluatedWorkload())
		return report{rep}, err
	})
}

func (s *Server) handleSessionExplain(r *http.Request) (int, any, error) {
	var req struct {
		SQL string `json:"sql"`
	}
	var q designer.Query
	return s.sessionVerb(r, &req, http.StatusOK, func(*session) (err error) {
		if req.SQL == "" {
			return errors.New("missing sql")
		}
		q, err = s.d.ParseQuery("q", req.SQL)
		return err
	}, func(_ context.Context, sess *session) (any, error) {
		plan, err := sess.ds.Explain(q)
		return map[string]any{"plan": plan}, err
	})
}

// --------------------------------------------------------------------------
// Handlers: automatic advice + materialization (Scenario 2 over the wire).
// --------------------------------------------------------------------------

// adviseRequestJSON is the shared wire form of an advise question: a
// workload description plus advisor options.
type adviseRequestJSON struct {
	workloadJSON
	BudgetPages  int64 `json:"budget_pages,omitempty"`
	NodeBudget   int   `json:"node_budget,omitempty"`
	Partitions   bool  `json:"partitions,omitempty"`
	Interactions bool  `json:"interactions,omitempty"`
	// Projections/AggViews widen the candidate design space beyond plain
	// secondary indexes (covering projections with INCLUDE payloads,
	// single-table aggregate materialized views). Off by default: plain
	// requests keep returning bit-identical index-only designs.
	Projections bool `json:"projections,omitempty"`
	AggViews    bool `json:"agg_views,omitempty"`
}

// isZero reports an empty request body — the /readvise "repeat the last
// question" form.
func (req *adviseRequestJSON) isZero() bool {
	return req.SQL.empty() && req.Queries == 0 && req.Seed == 0 &&
		req.BudgetPages == 0 && req.NodeBudget == 0 && !req.Partitions && !req.Interactions &&
		!req.Projections && !req.AggViews
}

// options maps the wire request to facade advice options.
func (req *adviseRequestJSON) options() designer.AdviceOptions {
	return designer.AdviceOptions{
		StorageBudgetPages: req.BudgetPages,
		NodeBudget:         req.NodeBudget,
		Partitions:         req.Partitions,
		Interactions:       req.Interactions,
		CandidateOptions: designer.CandidateOptions{
			IncludeProjections: req.Projections,
			IncludeAggViews:    req.AggViews,
		},
	}
}

func (s *Server) handleAdvise(r *http.Request, req *adviseRequestJSON) (int, any, error) {
	wl, err := s.workload(req.workloadJSON, nil)
	if err != nil {
		return 0, nil, err
	}
	advice, err := s.d.Advise(r.Context(), wl, req.options())
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, adviceResponse(advice), nil
}

// adviceResponse renders an advice in the wire layout shared by /advise and
// the session advise/readvise endpoints.
func adviceResponse(advice *designer.Advice) map[string]any {
	resp := map[string]any{
		"indexes": toIndexesJSON(advice.Indexes),
		"report":  report{advice.Report},
		"ddl":     advice.DDL(),
	}
	if advice.Solver != nil {
		resp["solver"] = map[string]any{
			"objective":     advice.Solver.Objective,
			"baseline_cost": advice.Solver.BaselineCost,
			"bound":         advice.Solver.Bound,
			"gap":           advice.Solver.Gap(),
			"proven":        advice.Solver.Proven,
			"nodes":         advice.Solver.Nodes,
			"solve_ms":      advice.Solver.SolveTime.Milliseconds(),
		}
	}
	if advice.Schedule != nil {
		type stepJSON struct {
			Index     string  `json:"index"`
			Kind      string  `json:"kind,omitempty"`
			BuildCost float64 `json:"build_cost"`
			CostAfter float64 `json:"cost_after"`
		}
		var steps []stepJSON
		for _, st := range advice.Schedule.Steps {
			steps = append(steps, stepJSON{Index: st.Index.Key(), Kind: st.Index.Kind, BuildCost: st.BuildCost, CostAfter: st.CostAfter})
		}
		resp["schedule"] = map[string]any{"steps": steps, "auc": advice.Schedule.AUC}
	}
	if advice.Partitions != nil {
		type partJSON struct {
			Table      string  `json:"table"`
			Vertical   string  `json:"vertical,omitempty"`
			Horizontal string  `json:"horizontal,omitempty"`
			BenefitPct float64 `json:"benefit_pct"`
		}
		var parts []partJSON
		for _, tp := range advice.Partitions.Tables {
			parts = append(parts, partJSON{
				Table: tp.Table, Vertical: tp.Vertical, Horizontal: tp.Horizontal,
				BenefitPct: tp.Improvement() * 100,
			})
		}
		resp["partitions"] = parts
	}
	return resp
}

// handleSessionAdvise runs the cold session-scoped pipeline against the
// session's pinned generation; the session keeps the answer's derivation
// for a warm readvise.
func (s *Server) handleSessionAdvise(r *http.Request) (int, any, error) {
	var req adviseRequestJSON
	var wl *designer.Workload
	return s.sessionVerb(r, &req, http.StatusOK, func(sess *session) (err error) {
		wl, err = s.workload(req.workloadJSON, sess.lastWl.Load())
		return err
	}, func(ctx context.Context, sess *session) (any, error) {
		opts := req.options()
		advice, err := sess.ds.Advise(ctx, wl, opts)
		if err != nil {
			return nil, err
		}
		sess.lastOpts = opts
		sess.lastWl.Store(wl)
		return adviceResponse(advice), nil
	})
}

// handleSessionReadvise answers the session's next design question warm,
// reusing the previous answer's derivation where the input delta allows. An
// empty body repeats the session's last advise question (the instant cached
// path); a non-empty body is a full new question, resolved exactly like
// /advise. The response carries a "readvise" object reporting what was
// reused.
func (s *Server) handleSessionReadvise(r *http.Request) (int, any, error) {
	var req adviseRequestJSON
	var wl *designer.Workload
	return s.sessionVerb(r, &req, http.StatusOK, func(sess *session) (err error) {
		if !req.isZero() {
			wl, err = s.workload(req.workloadJSON, sess.lastWl.Load())
		}
		return err
	}, func(ctx context.Context, sess *session) (any, error) {
		opts := req.options()
		if req.isZero() {
			// An empty body means "repeat the last question"; a session that
			// never asked one gets an error — that beats fabricating a default
			// workload on what is documented as the instant cached path.
			if wl = sess.lastWl.Load(); wl == nil {
				return nil, errors.New("no previous advise question to repeat; send a workload (see POST /advise)")
			}
			opts = sess.lastOpts
		}
		start := time.Now()
		advice, stats, err := sess.ds.ReAdvise(ctx, wl, opts)
		if err != nil {
			return nil, err
		}
		sess.lastOpts = opts
		sess.lastWl.Store(wl)
		resp := adviceResponse(advice)
		resp["readvise"] = map[string]any{
			"warm":                stats.Warm,
			"cached":              stats.Cached,
			"candidates_reused":   stats.CandidatesReused,
			"solver_warm_started": stats.SolverWarmStarted,
			"recosted_queries":    stats.RecostedQueries,
			"reused_queries":      stats.ReusedQueries,
			"elapsed_ms":          float64(time.Since(start).Microseconds()) / 1000.0,
		}
		return resp, nil
	})
}

type materializeJSON struct {
	Indexes []struct {
		Table   string   `json:"table"`
		Columns []string `json:"columns"`
	} `json:"indexes"`
}

func (s *Server) handleMaterialize(r *http.Request, req *materializeJSON) (int, any, error) {
	if len(req.Indexes) == 0 {
		return 0, nil, errors.New("no indexes given")
	}
	ixs := make([]designer.Index, len(req.Indexes))
	for i, spec := range req.Indexes {
		ixs[i] = designer.Index{Table: spec.Table, Columns: spec.Columns}
	}
	ioStats, err := s.d.Materialize(r.Context(), ixs)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]any{"materialized": len(ixs), "build_io": ioStats.Total()}, nil
}

// --------------------------------------------------------------------------
// Handlers: online tuning (Scenario 3 over the wire).
// --------------------------------------------------------------------------

type tunerCreateJSON struct {
	EpochLength      int   `json:"epoch_length,omitempty"`
	SpaceBudgetPages int64 `json:"space_budget_pages,omitempty"`
	WhatIfBudget     int   `json:"whatif_budget,omitempty"`
}

func (s *Server) handleTunerCreate(r *http.Request, req *tunerCreateJSON) (int, any, error) {
	opts := designer.DefaultTunerOptions()
	opts.EpochLength = orDefault(req.EpochLength, opts.EpochLength)
	opts.SpaceBudgetPages = orDefault(req.SpaceBudgetPages, opts.SpaceBudgetPages)
	opts.WhatIfBudget = orDefault(req.WhatIfBudget, opts.WhatIfBudget)
	s.tunerMu.Lock()
	s.tunerOpts = opts
	// Replacing the tuner retires its autopilot too (saving its state when
	// persistence is on); a failed save does not stop the replacement.
	v, _ := s.seatTuner(s.d.NewOnlineTuner(opts), true)
	s.tunerMu.Unlock()
	return http.StatusCreated, map[string]any{"id": v.id(), "epoch_length": opts.EpochLength}, nil
}

type observeJSON struct {
	SQL []string `json:"sql"`
}

// errNoTuner answers the tuner routes before POST /tuner.
var errNoTuner = errorf(http.StatusNotFound, codeTunerNotConfigured, "no tuner configured; POST /api/v1/tuner first")

func (s *Server) handleTunerObserve(r *http.Request, req *observeJSON) (int, any, error) {
	if len(req.SQL) == 0 {
		return 0, nil, errors.New("no sql given")
	}
	var qs []designer.Query
	for _, sql := range req.SQL {
		q, err := s.d.ParseQuery(fmt.Sprintf("http-%d", s.observed.Add(1)), sql)
		if err != nil {
			return 0, nil, err
		}
		qs = append(qs, q)
	}
	s.tunerMu.Lock()
	if s.occupant == nil {
		s.tunerMu.Unlock()
		// No silent auto-create: an observe against a tuner that was never
		// configured is a client mistake (its options would be defaults the
		// caller never chose), and burying that as a 200 hides it.
		return 0, nil, errNoTuner
	}
	total, err := s.occupant.ObserveAll(r.Context(), qs)
	v := s.publishTuner(false)
	s.tunerMu.Unlock()
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]any{
		"observed":       len(qs),
		"estimated_cost": total,
		"alerts_total":   len(v.alerts),
	}, nil
}

type tunerAlertJSON struct {
	Epoch       int      `json:"epoch"`
	Added       []string `json:"added"`
	Dropped     []string `json:"dropped"`
	BenefitEst  float64  `json:"expected_benefit"`
	Applied     bool     `json:"applied"`
	Description string   `json:"description"`
}

// observer is what occupies the tuner slot. *designer.Tuner and
// *designer.Autopilot both satisfy it; the autopilot's own telemetry is
// reached by a type assertion.
type observer interface {
	ObserveAll(ctx context.Context, qs []designer.Query) (float64, error)
	Alerts() []designer.TunerAlert
	Reports() []designer.TunerReport
	Current() []designer.Index
}

// tunerView is one immutable reading of the tuner slot. gen counts tuner
// generations — it bumps when POST /tuner or StartAutopilot seats a fresh
// tuner, not when the autopilot starts or stops on the same one — so stream
// cursors can reset instead of skipping a fresh tuner's alerts; 0 means no
// tuner has ever existed. active and autopilot say what the slot held when
// the view was built. status, decisions and regret are the autopilot's.
type tunerView struct {
	gen       int64
	active    bool
	autopilot bool
	alerts    []tunerAlertJSON
	reports   []designer.TunerReport
	current   []string
	status    designer.AutopilotStatus
	decisions []designer.AutopilotDecision
	regret    []designer.AutopilotRegretPoint
}

// id is the tuner id ("t<gen>") the autopilot routes address.
func (v *tunerView) id() string { return fmt.Sprintf("t%d", v.gen) }

// seatTuner retires the slot's occupant (an autopilot persists its state on
// the way out; its save error is the one returned), seats o in its place —
// nil empties the slot — and publishes the slot's new reading. Callers hold
// tunerMu.
func (s *Server) seatTuner(o observer, fresh bool) (*tunerView, error) {
	var err error
	switch old := s.occupant.(type) {
	case *designer.Autopilot:
		err = old.Close()
	case *designer.Tuner:
		old.Close()
	}
	s.occupant = o
	return s.publishTuner(fresh), err
}

// seatAutopilot builds an autopilot over the tuner options and seats it in
// place of whatever the slot holds; the slot is untouched when the build
// fails. Callers hold tunerMu.
func (s *Server) seatAutopilot(topts designer.TunerOptions, aopts designer.AutopilotOptions, fresh bool) (*tunerView, error) {
	ap, err := s.d.NewAutopilot(topts, aopts)
	if err != nil {
		return nil, err
	}
	s.tunerOpts = topts
	v, _ := s.seatTuner(ap, fresh) // a retiring autopilot's save error does not stop its replacement
	return v, nil
}

// publishTuner builds the slot's reading from what it holds now and
// publishes it; fresh starts a new tuner generation. active and autopilot
// are derived from the occupant, never kept beside it, and an emptied slot
// keeps its last telemetry readable with both off. Callers hold tunerMu,
// which excludes a concurrent observation and so makes the occupant safe to
// read.
func (s *Server) publishTuner(fresh bool) *tunerView {
	v := *s.tunerView.Load() // start from the last reading: an emptied slot changes only its flags
	if fresh {
		v = tunerView{gen: v.gen + 1}
	}
	ap, isAP := s.occupant.(*designer.Autopilot)
	v.active, v.autopilot = s.occupant != nil, isAP
	if v.active {
		srcAlerts := s.occupant.Alerts()
		v.alerts = make([]tunerAlertJSON, len(srcAlerts))
		for i, a := range srcAlerts {
			v.alerts[i] = tunerAlertJSON{
				Epoch: a.Epoch, BenefitEst: a.ExpectedBenefit, Applied: a.Applied,
				Added: keysOf(a.Added), Dropped: keysOf(a.Dropped), Description: a.String(),
			}
		}
		v.reports = s.occupant.Reports()
		v.current = nil // JSON null while the design holds no index
		for _, ix := range s.occupant.Current() {
			v.current = append(v.current, ix.Key())
		}
	}
	if isAP {
		v.status, v.decisions, v.regret = ap.Status(), ap.Decisions(0), ap.Regret()
	}
	s.tunerView.Store(&v)
	return &v
}

// keysOf lists the indexes' canonical keys (never nil).
func keysOf(ixs []designer.Index) []string {
	keys := make([]string, len(ixs))
	for i, ix := range ixs {
		keys[i] = ix.Key()
	}
	return keys
}

// liveTuner returns the slot's reading when id addresses it, and otherwise
// the error to answer 404 with: a stale id (from a replaced tuner) and an
// unknown id answer the same way, that tuner is gone. A handler that acts
// on the occupant calls it under tunerMu, where the reading is the
// occupant's own — checked any earlier, a POST /tuner landing in between
// would hand the request the next tuner.
func (s *Server) liveTuner(id string) (*tunerView, error) {
	v := s.tunerView.Load()
	switch {
	case v.gen == 0:
		return nil, errNoTuner
	case id != v.id():
		return nil, errorf(http.StatusNotFound, codeTunerNotConfigured, "tuner %q is not live (current tuner is %q)", id, v.id())
	}
	return v, nil
}

func (s *Server) handleTunerStatus(r *http.Request) (int, any, error) {
	v := s.tunerView.Load()
	if v.gen == 0 {
		return 0, nil, errNoTuner
	}
	return http.StatusOK, map[string]any{
		"id":        v.id(),
		"active":    v.active,
		"autopilot": v.autopilot,
		"current":   v.current,
		"alerts":    v.alerts,
		"epochs":    v.reports,
	}, nil
}

// --------------------------------------------------------------------------
// Handlers: autopilot (the ops-grade closed loop over the tuner).
// --------------------------------------------------------------------------

// autopilotStatusJSON is the wire shape of one autopilot snapshot.
func autopilotStatusJSON(id string, st designer.AutopilotStatus, regret []designer.AutopilotRegretPoint) map[string]any {
	if st.LiveIndexes == nil {
		st.LiveIndexes = []string{}
	}
	if st.Builds == nil {
		st.Builds = []designer.AutopilotBuild{}
	}
	if st.Probation == nil {
		st.Probation = []designer.AutopilotProbation{}
	}
	if regret == nil {
		regret = []designer.AutopilotRegretPoint{}
	}
	return map[string]any{
		"tuner_id": id,
		"status":   st,
		"regret":   regret,
	}
}

// handleAutopilotStart upgrades the live tuner to autopilot supervision:
// budgeted background builds, probation with rollback and regret tracking.
// The supervisor starts from the tuner's options but its own fresh
// learning state. Persistence is a deployment setting: only the operator
// names a state file (StartAutopilot), so a body naming one is refused.
type autopilotStartJSON struct {
	BuildBudgetPages int64   `json:"build_budget_pages,omitempty"`
	ProbationEpochs  int     `json:"probation_epochs,omitempty"`
	RollbackMargin   float64 `json:"rollback_margin,omitempty"`
	CooldownEpochs   int     `json:"cooldown_epochs,omitempty"`
	RegretCandidates int     `json:"regret_candidates,omitempty"`
	// StatePath is read only to refuse it.
	StatePath json.RawMessage `json:"state_path"`
}

func (s *Server) handleAutopilotStart(r *http.Request, req *autopilotStartJSON) (int, any, error) {
	if req.StatePath != nil {
		return 0, nil, errors.New("state_path is not a request field: the operator configures autopilot persistence (dbdesigner tune --server --state)")
	}
	opts := designer.DefaultAutopilotOptions()
	opts.BuildBudgetPages = orDefault(req.BuildBudgetPages, opts.BuildBudgetPages)
	opts.ProbationEpochs = orDefault(req.ProbationEpochs, opts.ProbationEpochs)
	opts.RollbackMargin = orDefault(req.RollbackMargin, opts.RollbackMargin)
	opts.CooldownEpochs = orDefault(req.CooldownEpochs, opts.CooldownEpochs)
	opts.RegretCandidates = orDefault(req.RegretCandidates, opts.RegretCandidates)

	s.tunerMu.Lock()
	v, idErr := s.liveTuner(r.PathValue("id"))
	_, running := s.occupant.(*designer.Autopilot)
	var err error
	if idErr == nil && !running {
		v, err = s.seatAutopilot(s.tunerOpts, opts, false)
	}
	s.tunerMu.Unlock()
	switch {
	case idErr != nil:
		return 0, nil, idErr
	case running:
		return 0, nil, errorf(http.StatusConflict, codeAutopilotActive, "autopilot already running; DELETE it first")
	case err != nil:
		return 0, nil, err
	}
	return http.StatusCreated, autopilotStatusJSON(v.id(), v.status, v.regret), nil
}

// errNoAutopilot answers the autopilot status and stop routes while the
// tuner runs without one.
var errNoAutopilot = errorf(http.StatusNotFound, codeAutopilotNotActive, "autopilot not running; POST to start it")

func (s *Server) handleAutopilotStatus(r *http.Request) (int, any, error) {
	v, err := s.liveTuner(r.PathValue("id"))
	if err != nil {
		return 0, nil, err
	}
	if !v.autopilot {
		return 0, nil, errNoAutopilot
	}
	return http.StatusOK, autopilotStatusJSON(v.id(), v.status, v.regret), nil
}

// handleAutopilotStop retires the autopilot (persisting its state when a
// state path was configured). The tuner slot becomes unconfigured: the
// supervisor owned the only learning state, so continuing as a plain
// tuner would silently discard it — POST /api/v1/tuner starts fresh.
func (s *Server) handleAutopilotStop(r *http.Request) (int, any, error) {
	s.tunerMu.Lock()
	_, idErr := s.liveTuner(r.PathValue("id"))
	_, running := s.occupant.(*designer.Autopilot)
	var err error
	if idErr == nil && running {
		_, err = s.seatTuner(nil, false)
	}
	s.tunerMu.Unlock()
	switch {
	case idErr != nil:
		return 0, nil, idErr
	case !running:
		return 0, nil, errNoAutopilot
	case err != nil:
		return 0, nil, &apiError{status: http.StatusInternalServerError, code: codeInternal, err: err}
	}
	return http.StatusOK, map[string]any{"stopped": true}, nil
}

// handleTunerStream streams new tuner alerts — and, when the autopilot is
// running, its decisions — as server-sent events until the client
// disconnects: the push form of Scenario 3's alert panel, extended with
// the closed loop's journal.
func (s *Server) handleTunerStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errorf(http.StatusInternalServerError, codeInternal, "streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": tuner alert stream\n\n")
	fl.Flush()

	sent := 0
	sentDec := 0
	lastGen := int64(-1)
	ticker := time.NewTicker(200 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			return // server shutting down; release the connection
		case <-ticker.C:
			v := s.tunerView.Load()
			if v.gen != lastGen {
				lastGen = v.gen
				sent = 0    // a replaced tuner restarts its alert list
				sentDec = 0 // ... and its decision journal
			}
			for ; sent < len(v.alerts); sent++ {
				payload, err := json.Marshal(v.alerts[sent])
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: alert\ndata: %s\n\n", payload)
			}
			for ; sentDec < len(v.decisions); sentDec++ {
				payload, err := json.Marshal(v.decisions[sentDec])
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: decision\ndata: %s\n\n", payload)
			}
			fl.Flush()
		}
	}
}
