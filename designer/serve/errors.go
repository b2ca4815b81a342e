package serve

import (
	"context"
	"errors"
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

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorEnvelopeJSON{Error: errorBodyJSON{Code: code, Message: err.Error()}})
}

// writeErrorRetry is writeError plus backoff guidance: a Retry-After
// header (whole seconds, rounded up) and the envelope's retry_after_ms.
func writeErrorRetry(w http.ResponseWriter, status int, code string, err error, retry time.Duration) {
	secs := int64((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, errorEnvelopeJSON{Error: errorBodyJSON{
		Code: code, Message: err.Error(), RetryAfterMS: retry.Milliseconds(),
	}})
}

// writeFacadeError maps an error out of the designer facade: context
// cancellation to 503 (the client hung up or the session was reclaimed
// mid-work), everything else to a 400 (facade errors are caller errors:
// unknown tables, bad SQL, invalid layouts).
func writeFacadeError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusServiceUnavailable, codeCancelled, err)
		return
	}
	writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
}
