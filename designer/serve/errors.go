package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Stable machine-readable error codes — the part of an error response
// clients may dispatch on. Messages are human prose and may change;
// codes and HTTP statuses are the contract (documented in openapi.yaml
// and the README's error-code table).
const (
	// codeInvalidRequest: malformed JSON, bad fields, unknown
	// tables/columns, oversized bodies — anything the caller can fix by
	// changing the request. HTTP 400.
	codeInvalidRequest = "invalid_request"
	// codeSessionNotFound: the session ID never existed, was closed, or
	// belongs to another tenant. HTTP 404.
	codeSessionNotFound = "session_not_found"
	// codeSessionEvicted: the session was reclaimed by TTL expiry or LRU
	// capacity eviction — create a new one. HTTP 410.
	codeSessionEvicted = "session_evicted"
	// codeIndexNotFound: the design has no index under the given key.
	// HTTP 404.
	codeIndexNotFound = "index_not_found"
	// codeTunerNotConfigured: tuner endpoints before POST /tuner, or an
	// autopilot route naming a tuner id that is stale (the tuner was
	// replaced) or never existed. HTTP 404.
	codeTunerNotConfigured = "tuner_not_configured"
	// codeAutopilotActive: starting the autopilot on a tuner that already
	// has one. HTTP 409.
	codeAutopilotActive = "autopilot_active"
	// codeAutopilotNotActive: autopilot status/stop before start. HTTP 404.
	codeAutopilotNotActive = "autopilot_not_active"
	// codeQuotaExceeded: the tenant is at its live-session quota. HTTP 429.
	codeQuotaExceeded = "quota_exceeded"
	// codeQueueFull: the admission queue for the request's priority class
	// is full — retry after backoff. HTTP 429.
	codeQueueFull = "queue_full"
	// codeCancelled: the request (or its session) was cancelled mid-work,
	// or the server is shutting down. HTTP 503.
	codeCancelled = "cancelled"
	// codeNotReady: readiness probe failure. HTTP 503.
	codeNotReady = "not_ready"
	// codeInternal: a server-side failure. HTTP 500.
	codeInternal = "internal"
)

// errorBodyJSON is the stable error envelope: every non-2xx response
// carries {"error":{"code":...,"message":...[,"retry_after_ms":...]}}.
type errorBodyJSON struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

type errorEnvelopeJSON struct {
	Error errorBodyJSON `json:"error"`
}

// apiError is a failed request's reply: the HTTP status, the stable code,
// and for a backoff the Retry-After hint. A route returns one where it knows
// the answer; writeError maps every other error.
type apiError struct {
	status int
	code   string
	retry  time.Duration
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }

// errorf builds an apiError from a message.
func errorf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, err: fmt.Errorf(format, args...)}
}

// writeError is the one error reply. An *apiError answers with its own
// status and code; context cancellation is 503 cancelled (the client hung
// up or the session was reclaimed mid-work); any other error out of the
// facade or a request's validation is the caller's, 400 invalid_request. A
// retry hint adds a Retry-After header (whole seconds, rounded up) and the
// envelope's retry_after_ms.
func writeError(w http.ResponseWriter, err error) {
	ae := &apiError{status: http.StatusBadRequest, code: codeInvalidRequest}
	switch {
	case errors.As(err, &ae):
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		ae = &apiError{status: http.StatusServiceUnavailable, code: codeCancelled}
	}
	body := errorBodyJSON{Code: ae.code, Message: err.Error()}
	if ae.retry > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(max(1, int64((ae.retry+time.Second-1)/time.Second)), 10))
		body.RetryAfterMS = ae.retry.Milliseconds()
	}
	writeJSON(w, ae.status, errorEnvelopeJSON{Error: body})
}
