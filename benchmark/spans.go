package benchmark

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one answer share Answer; Parent is the ID of the span
// that caused it (0 = the answer's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Answer  int    `json:"answer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced and the traced run share one code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent, answer int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Answer: answer, Name: name, StartNs: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a duration the
// program reports about itself, such as the solver's SolveTime), placed so
// that it ends when its parent ends.
func (t *tracer) add(parent, answer int, name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.spans[parent-1].EndNs
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Answer: answer, Name: name, StartNs: end - int64(d), EndNs: end})
}

// answerOf returns the answer a span belongs to (0 on a nil tracer).
func (t *tracer) answerOf(id int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Answer
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (overlapping children count
// once). The result is in nanoseconds.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, upto := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, upto), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		out[s.Name] += float64(s.EndNs - s.StartNs - covered)
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
