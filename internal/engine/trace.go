package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// TraceSchemaVersion identifies the trace document layout.
const TraceSchemaVersion = 1

// Trace ops: a cached (INUM-style) query costing vs a full-optimizer
// statement costing. The two paths return different numbers for the same
// (statement, configuration), so replay keys on the op too.
const (
	opQuery = "query"
	opStmt  = "stmt"
)

// TraceCall is one recorded costing call: the canonical SQL, the
// configuration signature it was priced under, and the cost the backend
// returned. Costs round-trip through JSON bit-exactly (encoding/json emits
// the shortest float64 form that parses back to the same value), which is
// what lets a replayed trace reproduce the recorded costs exactly.
type TraceCall struct {
	Op     string  `json:"op"` // "query" (cached path) or "stmt" (full optimizer)
	SQL    string  `json:"sql"`
	Config string  `json:"config"` // catalog.Configuration.Signature()
	Cost   float64 `json:"cost"`
}

// traceKey is a call's identity: the fields a lookup matches on, kept
// apart so no field's bytes can run into the next.
type traceKey struct{ op, sql, config string }

// Trace is a recorded set of costing calls — the portable artifact of the
// record/replay workflow: record once against a live backend, then run the
// design algorithms anywhere against the trace alone.
type Trace struct {
	SchemaVersion int    `json:"schema_version"`
	Backend       string `json:"backend"` // kind of the recorded backend
	// Conflicts counts re-recordings of a key with a different cost (a
	// recorder spanning a statistics refresh); the first recording wins.
	Conflicts int         `json:"conflicts,omitempty"`
	Calls     []TraceCall `json:"calls"`

	once  sync.Once
	index map[traceKey]float64
}

// lookup resolves one recorded call, building the key index lazily.
func (t *Trace) lookup(op, sql, cfgSig string) (float64, bool) {
	t.once.Do(func() {
		t.index = make(map[traceKey]float64, len(t.Calls))
		for _, c := range t.Calls {
			k := traceKey{c.Op, c.SQL, c.Config}
			if _, dup := t.index[k]; !dup {
				t.index[k] = c.Cost
			}
		}
	})
	v, ok := t.index[traceKey{op, sql, cfgSig}]
	return v, ok
}

// Len reports the number of recorded calls.
func (t *Trace) Len() int { return len(t.Calls) }

// sortCalls orders calls canonically by (op, sql, config) — the one
// ordering the byte-identical-files determinism contract rests on. The sort
// is stable: a key listed twice keeps its first-listed cost first, so the
// cost a trace serves survives a write and a reload.
func sortCalls(calls []TraceCall) {
	sort.SliceStable(calls, func(i, j int) bool {
		a, b := calls[i], calls[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.SQL != b.SQL {
			return a.SQL < b.SQL
		}
		return a.Config < b.Config
	})
}

// WriteFile saves the trace as indented JSON with calls in deterministic
// (op, sql, config) order, so recording the same run twice produces
// byte-identical files.
func (t *Trace) WriteFile(path string) error {
	sortCalls(t.Calls)
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadTrace reads a trace document and validates its schema version.
func LoadTrace(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("engine: trace: %w", err)
	}
	var t Trace
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("engine: trace %s: %w", path, err)
	}
	if t.SchemaVersion != TraceSchemaVersion {
		return nil, fmt.Errorf("engine: trace %s: schema_version %d, want %d", path, t.SchemaVersion, TraceSchemaVersion)
	}
	if len(t.Calls) == 0 {
		return nil, fmt.Errorf("engine: trace %s: no recorded calls", path)
	}
	return &t, nil
}

// Recorder captures every costing call flowing through a backend. Wrap any
// backend by setting BackendSpec.Recorder; the same recorder can span
// several engines (e.g. a designer plus a fresh bench engine) — calls
// accumulate under one trace. Safe for concurrent use: the engine's
// parallel sweeps record from many goroutines.
type Recorder struct {
	mu    sync.Mutex
	kind  string
	calls map[traceKey]TraceCall
	// conflicts counts keys recorded twice with different costs — a sign
	// the recording spanned a configuration-generation or statistics change.
	conflicts int
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{calls: make(map[traceKey]TraceCall)}
}

func (r *Recorder) record(kind, op, sql, cfgSig string, cost float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kind = kind
	k := traceKey{op, sql, cfgSig}
	if prev, ok := r.calls[k]; ok {
		if prev.Cost != cost {
			r.conflicts++
		}
		return // first recording wins; keeps replay deterministic
	}
	r.calls[k] = TraceCall{Op: op, SQL: sql, Config: cfgSig, Cost: cost}
}

// Len reports how many distinct calls have been recorded so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.calls)
}

// Trace snapshots the recorded calls into a trace document.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Trace{SchemaVersion: TraceSchemaVersion, Backend: r.kind, Conflicts: r.conflicts}
	for _, c := range r.calls {
		t.Calls = append(t.Calls, c)
	}
	sortCalls(t.Calls)
	return t
}

// WriteFile snapshots and saves the recorded trace.
func (r *Recorder) WriteFile(path string) error { return r.Trace().WriteFile(path) }
