//go:build go1.24

package designer

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// TestSharedTreesPriceLikeFreshParses is the differential twin of tree
// sharing. Over the five workload profiles, with texts repeated under other
// IDs and weights other than 1, a design session re-parses its workload
// before each of a dozen edits, as every evaluate over HTTP does, so each
// evaluation after the first is a delta over the trees its state shares
// with the table. Every report must equal, by Float64bits, a cold
// evaluation in a fresh session of a workload whose every member was parsed
// on its own, a tree nothing else holds.
func TestSharedTreesPriceLikeFreshParses(t *testing.T) {
	ctx := context.Background()
	d, err := OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.ProfileNames() {
		p, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := p.Generate(d.store.Schema, 5, 40)
		if err != nil {
			t.Fatal(err)
		}
		var members []workload.Query
		for i, q := range gen.Queries {
			members = append(members, workload.Query{ID: q.ID, SQL: q.SQL, Weight: q.Weight * (1 + float64(i%3)/4)})
		}
		for i := 0; i < 6; i++ {
			q := gen.Queries[i*6]
			members = append(members, workload.Query{ID: fmt.Sprintf("again%d", i), SQL: q.SQL, Weight: 0.5 + float64(i)})
		}
		shared := func() *Workload {
			qs := make([]Query, len(members))
			for i, m := range members {
				q, err := d.ParseQuery(m.ID, m.SQL)
				if err != nil {
					t.Fatal(err)
				}
				qs[i] = q.WithWeight(m.Weight)
			}
			w, err := NewWorkload(qs...)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		fresh := func() *Workload {
			iw := &workload.Workload{}
			for _, m := range members {
				stmt, err := sqlparse.ParseSelect(m.SQL)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.resolveBound(stmt); err != nil {
					t.Fatal(err)
				}
				m.Stmt = stmt
				iw.Queries = append(iw.Queries, m)
			}
			return workloadFromInternal(iw)
		}

		w := shared()
		for i, q := range w.internal().Queries {
			if i >= len(gen.Queries) && q.Stmt != w.internal().Queries[(i-len(gen.Queries))*6].Stmt {
				t.Fatalf("%s: %s repeats a text and does not share its tree", name, q.ID)
			}
		}
		opts := whatif.DefaultCandidateOptions()
		opts.IncludeProjections, opts.IncludeAggViews = true, true
		cands := d.eng.Pin().Session().GenerateCandidates(w.internal(), opts)
		if len(cands) == 0 {
			t.Fatalf("%s: no candidates", name)
		}
		rng := rand.New(rand.NewSource(int64(len(name))))
		s := d.NewDesignSession()
		reused := 0
		for step := 0; step < 12; step++ {
			ix := cands[rng.Intn(len(cands))]
			if s.cfg.HasIndex(ix.Key()) {
				s.cfg = s.cfg.WithoutIndex(ix.Key())
			} else {
				s.cfg = s.cfg.WithIndex(ix)
			}
			next := shared()
			for i, q := range next.internal().Queries {
				if q.Stmt != w.internal().Queries[i].Stmt {
					t.Fatalf("%s step %d: a re-parse of %s while its tree is held parsed it again", name, step, q.ID)
				}
			}
			w = next
			got, err := s.Evaluate(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			_, r := s.LastEvaluateDelta()
			reused += r
			cold := d.NewDesignSession()
			cold.cfg = s.cfg.Clone()
			want, err := cold.Evaluate(ctx, fresh())
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, fmt.Sprintf("%s step %d", name, step), got, want)
		}
		if reused == 0 {
			t.Fatalf("%s: no evaluation reused a cost: the deltas were never taken", name)
		}
	}
}

// sameReport fails unless two reports are equal bit for bit.
func sameReport(t *testing.T, where string, got, want *Report) {
	t.Helper()
	if math.Float64bits(got.BaseTotal) != math.Float64bits(want.BaseTotal) ||
		math.Float64bits(got.NewTotal) != math.Float64bits(want.NewTotal) || len(got.Queries) != len(want.Queries) {
		t.Fatalf("%s: totals (%v, %v) over %d queries, want (%v, %v) over %d", where,
			got.BaseTotal, got.NewTotal, len(got.Queries), want.BaseTotal, want.NewTotal, len(want.Queries))
	}
	for i, g := range got.Queries {
		x := want.Queries[i]
		if g.ID != x.ID || g.SQL != x.SQL || math.Float64bits(g.BaseCost) != math.Float64bits(x.BaseCost) ||
			math.Float64bits(g.NewCost) != math.Float64bits(x.NewCost) {
			t.Fatalf("%s: query %d is %+v, want %+v", where, i, g, x)
		}
	}
}

// TestConcurrentParseSharesOneTree races eight goroutines on the first
// ParseQuery of one text and on pricing it in sessions of their own: all
// eight must get one tree, and each its own evaluation, equal by bits to a
// serial evaluation of a tree parsed apart. A tree published while the text's
// tree is held yields to it. Run it under -race.
func TestConcurrentParseSharesOneTree(t *testing.T) {
	const sql = "SELECT objid, psfmag_r FROM photoobj WHERE psfmag_r BETWEEN 15.5 AND 16.25 AND type = 6"
	ctx := context.Background()
	d, err := OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	evaluate := func(w *Workload) (*Report, error) {
		s := d.NewDesignSession()
		if _, err := s.AddIndex("photoobj", "psfmag_r"); err != nil {
			return nil, err
		}
		return s.Evaluate(ctx, w)
	}
	stmt, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.resolveBound(stmt); err != nil {
		t.Fatal(err)
	}
	want, err := evaluate(workloadFromInternal(&workload.Workload{Queries: []workload.Query{{ID: "q", SQL: sql, Weight: 1, Stmt: stmt}}}))
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	trees := make([]*sqlparse.SelectStmt, n)
	reports := make([]*Report, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			q, err := d.ParseQuery("q", sql)
			if err != nil {
				t.Error(err)
				return
			}
			w, err := NewWorkload(q)
			if err != nil {
				t.Error(err)
				return
			}
			if reports[g], err = evaluate(w); err != nil {
				t.Error(err)
			}
			trees[g] = q.stmt
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 0; g < n; g++ {
		if trees[g] != trees[0] {
			t.Fatalf("goroutine %d parsed its own tree of a text whose tree was held", g)
		}
		sameReport(t, fmt.Sprintf("goroutine %d", g), reports[g], want)
	}
	if got := d.trees.len(); got != 1 {
		t.Fatalf("the table holds %d entries for one text", got)
	}
	// A parser that missed while another published gets the published tree.
	if got := d.trees.publish(sql, stmt); got != trees[0] {
		t.Fatal("a second publisher of a held text replaced its tree")
	}
}

// TestTreeTableHoldsNothingDead holds the table to its weak hold: an entry
// lives while its tree does — a workload, then a session's last evaluation
// keeps it — and once the last holder is gone and the GC has run, the table
// is empty. A designer whose tree lives on elsewhere is itself collected: the
// cleanup holds the table alone.
func TestTreeTableHoldsNothingDead(t *testing.T) {
	ctx := context.Background()
	d, err := OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := d.GenerateWorkload(7, 60)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	var script []string
	for _, q := range gen.Queries() {
		script = append(script, q.SQL())
		distinct[q.SQL()] = true
	}
	session := func() *DesignSession {
		w, err := d.WorkloadFromSQL(script)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.trees.len(); got != len(distinct) {
			t.Fatalf("the table holds %d entries for %d distinct texts", got, len(distinct))
		}
		s := d.NewDesignSession()
		if _, err := s.Evaluate(ctx, w); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := session()
	runtime.GC()
	if got := d.trees.len(); got != len(distinct) {
		t.Fatalf("with the session alive the table holds %d entries, want %d", got, len(distinct))
	}
	runtime.KeepAlive(s)
	collectUntil(t, "the table to empty", func() bool { return d.trees.len() == 0 })

	var q Query
	gone := func() weak.Pointer[Designer] {
		other, err := OpenSDSS("tiny", 41)
		if err != nil {
			t.Fatal(err)
		}
		if q, err = other.ParseQuery("q", script[0]); err != nil {
			t.Fatal(err)
		}
		return weak.Make(other)
	}()
	collectUntil(t, "a designer whose tree is held to be collected", func() bool { return gone.Value() == nil })
	if q.stmt.Key() == "" {
		t.Fatal("the held tree lost its rendering")
	}
}

// TestLateCleanupKeepsALiveEntry holds a cleanup to the entry it was made
// for: a text's first tree dies, the text is parsed again, and the first
// tree's cleanup, running only after the second tree was published, must
// leave the second tree's entry alone. Cleanups run one at a time on one
// goroutine, so a cleanup of the test's own that waits for a signal holds
// the first trees' cleanups back until the second trees are published.
func TestLateCleanupKeepsALiveEntry(t *testing.T) {
	d, err := OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := d.GenerateWorkload(11, 200)
	if err != nil {
		t.Fatal(err)
	}
	var script []string
	for _, q := range gen.Queries() {
		script = append(script, q.SQL())
	}
	parse := func() []*sqlparse.SelectStmt {
		out := make([]*sqlparse.SelectStmt, len(script))
		for i, sql := range script {
			q, err := d.ParseQuery("q", sql)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = q.stmt
		}
		return out
	}

	started, release := make(chan struct{}), make(chan struct{})
	func() {
		runtime.AddCleanup(new([64]byte), func(struct{}) {
			close(started)
			<-release
		}, struct{}{})
	}()
	collectUntil(t, "the blocking cleanup to start", func() bool {
		select {
		case <-started:
			return true
		default:
			return false
		}
	})
	parse()
	runtime.GC() // the first trees die; their cleanups queue behind the blocker
	second := parse()
	close(release)
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // let the queued cleanups drain
	}
	for i, stmt := range parse() {
		if stmt != second[i] {
			t.Fatalf("statement %d: a late cleanup of its first tree dropped the entry of its live second", i)
		}
	}
}

// TestTreeTableShrinksAfterChurn holds the table's map to its demand: a
// burst of 4,000 distinct texts, each tree dropped after its parse but for
// every 400th, is collected; then a cycle of 200 more is. The map the
// table then holds was rebuilt — its peak is the small cycle's, not the
// burst's — while every live tree is still found by its text.
func TestTreeTableShrinksAfterChurn(t *testing.T) {
	d, err := OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	// No collection runs while a cycle's texts are parsed, so each cycle's
	// peak is all of its texts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var live []Query
	churn := func(from, to int) {
		for i := from; i < to; i++ {
			q, err := d.ParseQuery("q", fmt.Sprintf("SELECT objid FROM photoobj WHERE ra < %d", i))
			if err != nil {
				t.Fatal(err)
			}
			if i%400 == 0 {
				live = append(live, q)
			}
		}
		collectUntil(t, "the dead texts' entries to go", func() bool { return d.trees.len() == len(live) })
	}
	const burst = 4000
	churn(0, burst)
	if peak := d.trees.peakLen(); peak < burst {
		t.Fatalf("the burst's map peaked at %d entries, want %d", peak, burst)
	}
	churn(burst, burst+200)
	if peak := d.trees.peakLen(); peak >= burst/4 {
		t.Fatalf("the table's map still counts a peak of %d entries for %d live: it was never rebuilt", peak, len(live))
	}
	for _, q := range live {
		if got := d.trees.lookup(q.SQL()); got != q.stmt {
			t.Fatalf("%s: the rebuilt table lost its live tree", q.SQL())
		}
	}
}

// collectUntil runs the GC until cond holds: cleanups run on their own
// goroutine after the cycle that finds their objects dead.
func collectUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.GC()
		runtime.Gosched()
	}
}

// peakLen reads the most entries the table's map has held since it was
// made.
func (t *treeTable) peakLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// len counts the table's entries, live or awaiting their cleanup.
func (t *treeTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
