//go:build go1.24

package designer

import (
	"maps"
	"runtime"
	"sync"
	"weak"

	"repro/internal/sqlparse"
)

// treeTable holds at most one parsed, resolved tree per exact SQL text, and
// holds it weakly: an entry lives only while something else — a workload, a
// session's delta state, an INUM entry — holds its tree. A front door that
// receives the same statements again (a what-if session's workload with one
// statement edited, another session's copy of it) finds the trees of the
// last request instead of parsing them again; a serve session's evaluate
// that repeats its workload unchanged does not reach the table at all. A
// collected tree's cleanup removes its entry, so the table has no size cap
// and no eviction policy (remove shrinks the map). The cleanup holds the
// table alone, never the designer, so a designer can be collected while a
// tree it parsed lives on.
//
// A shared tree is immutable after Resolve: its analysis and key are
// memoized on it, and nothing edits a statement once ParseQuery returns it
// (a rewrite builds a new one).
type treeTable struct {
	mu sync.Mutex
	m  map[string]weak.Pointer[sqlparse.SelectStmt]
	// peak is the most entries m has held since it was made, and cycle
	// the most since the last drain (a fall below a quarter of cycle).
	peak, cycle int
	// drop is the cleanup, made once: a method value per tree would
	// allocate.
	drop func(sql string)
}

func newTreeTable() *treeTable {
	t := &treeTable{m: make(map[string]weak.Pointer[sqlparse.SelectStmt])}
	t.drop = t.remove
	return t
}

// lookup returns the live tree parsed from sql, or nil.
func (t *treeTable) lookup(sql string) *sqlparse.SelectStmt {
	t.mu.Lock()
	wp := t.m[sql]
	t.mu.Unlock()
	return wp.Value()
}

// publish records stmt as the tree of sql and returns the tree callers
// share: stmt, or the one another caller published first while both were
// parsing.
func (t *treeTable) publish(sql string, stmt *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	t.mu.Lock()
	defer t.mu.Unlock()
	if live := t.m[sql].Value(); live != nil {
		return live
	}
	t.m[sql] = weak.Make(stmt)
	t.cycle = max(t.cycle, len(t.m))
	t.peak = max(t.peak, t.cycle)
	runtime.AddCleanup(stmt, t.drop, sql)
	return stmt
}

// remove runs after a tree parsed from sql is collected. It deletes the
// entry unless the entry now holds a later, live tree of the same text.
// A Go map keeps the room it grew, so when the entries drain to a quarter
// of the cycle's peak, a map grown for four times that peak is rebuilt at
// the live size; one the cycles fill is kept, not regrown every cycle.
func (t *treeTable) remove(sql string) {
	t.mu.Lock()
	if wp, ok := t.m[sql]; ok && wp.Value() == nil {
		delete(t.m, sql)
	}
	if n := len(t.m); n < t.cycle/4 {
		if t.cycle < t.peak/4 {
			m := make(map[string]weak.Pointer[sqlparse.SelectStmt], n)
			maps.Copy(m, t.m)
			t.m, t.peak = m, n
		}
		t.cycle = 0
	}
	t.mu.Unlock()
}
