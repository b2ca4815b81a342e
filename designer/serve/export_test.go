package serve

import (
	"context"
	"testing"
)

// WithAdmissionHold installs a test hook that runs in the worker before
// every claimed pool job — it lets tests hold the pool's workers at a
// barrier and observe queueing/rejection deterministically.
func WithAdmissionHold(h func(context.Context)) Option {
	return func(s *Server) { s.holdHook = h }
}

// ScribbleReleasedBodies makes every request body buffer be overwritten with
// '#' as it goes back to the pool, until the test ends: a reply, a session
// or a queued job that still reads a body its request no longer owns reads
// garbage, and under -race the overwrite races with that read.
func ScribbleReleasedBodies(t testing.TB) {
	scribble.Store(true)
	t.Cleanup(func() { scribble.Store(false) })
}
