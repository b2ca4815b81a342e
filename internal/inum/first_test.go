package inum

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// coltDesigns lists the designs an online tuner prices a statement under:
// the live design, and the live design with one single-column candidate on
// a column the statement reads, for an empty live design and for one
// holding two structures.
func coltDesigns(t *testing.T, sess *whatif.Session, live *catalog.Configuration, stmt *sqlparse.SelectStmt) []*catalog.Configuration {
	t.Helper()
	designs := []*catalog.Configuration{catalog.NewConfiguration(), live}
	a := stmt.Analysis()
	for ti, table := range a.Tables {
		cols := make([]string, 0, len(a.Columns[ti]))
		for col := range a.Columns[ti] {
			cols = append(cols, col)
		}
		slices.Sort(cols)
		for _, col := range cols {
			ix, err := sess.HypotheticalIndex(table, col)
			if err != nil {
				t.Fatal(err)
			}
			designs = append(designs, catalog.NewConfiguration().WithIndex(ix), live.WithIndex(ix))
		}
	}
	return designs
}

// driftStream returns a drift stream over a dataset of the given size, its
// environment and a what-if session to size candidates with.
func driftStream(t *testing.T, size workload.Size) ([]workload.Query, *optimizer.Env, *whatif.Session, *catalog.Schema) {
	t.Helper()
	store, err := workload.Generate(size, 41)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, nil)
	stream, err := workload.Stream(store.Schema, 7, workload.DefaultDriftPhases(12))
	if err != nil {
		t.Fatal(err)
	}
	return stream, env, whatif.NewSessionFromEnv(env, nil), store.Schema
}

// TestFirstSlotPricesAsTheKeyedSlots is the twin of a cache's first slot.
// Over a drift stream on the tiny and the small dataset, a statement's cost
// from a fresh cache asked it alone — its entry in the cache's own slot,
// found by pointer, no key rendered — equals, bit for bit, its cost from a
// cache first asked another statement, where it is found by key, under every
// design an online tuner prices it under (coltDesigns). Both doors are
// compared: the on-demand entry the tuner prices from, and the complete one.
func TestFirstSlotPricesAsTheKeyedSlots(t *testing.T) {
	for _, size := range []struct {
		name string
		size workload.Size
	}{{"tiny", workload.TinySize()}, {"small", workload.SmallSize()}} {
		t.Run(size.name, func(t *testing.T) {
			stream, env, sess, _ := driftStream(t, size.size)
			live := catalog.NewConfiguration()
			for _, cols := range [][2]string{{"photoobj", "psfmag_r"}, {"specobj", "z"}} {
				ix, err := sess.HypotheticalIndex(cols[0], cols[1])
				if err != nil {
					t.Fatal(err)
				}
				live = live.WithIndex(ix)
			}
			priced := 0
			for i, q := range stream {
				other := stream[(i+1)%len(stream)]
				if other.SQL == q.SQL {
					continue
				}
				designs := coltDesigns(t, sess, live, q.Stmt)
				for _, complete := range []bool{false, true} {
					fresh, keyed := New(env), New(env)
					if _, err := keyed.entry(other.Stmt, complete); err != nil {
						t.Fatal(err)
					}
					fq, err := fresh.entry(q.Stmt, complete)
					if err != nil {
						t.Fatal(err)
					}
					kq, err := keyed.entry(q.Stmt, complete)
					if err != nil {
						t.Fatal(err)
					}
					for d, cfg := range designs {
						want, _ := fresh.CostFor(fq, cfg)
						got, _ := keyed.CostFor(kq, cfg)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s (complete %v), design %d: keyed cache %v, one-statement cache %v", q.ID, complete, d, got, want)
						}
						priced++
					}
					if fresh.slots != nil {
						t.Fatalf("%s: a cache asked one statement made a slot map", q.ID)
					}
				}
			}
			if priced == 0 {
				t.Fatal("no statement was priced")
			}
		})
	}
}

// reparse returns a second tree of the statement's text, resolved.
func reparse(t *testing.T, schema *catalog.Schema, sql string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(stmt, schema); err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestTwoParsesOfOneTextShareAnEntry asks one cache for two parses of one
// text: they find one entry, built by one full optimization, whether the
// first parse holds the cache's own slot or another statement came first
// and both are found by key.
func TestTwoParsesOfOneTextShareAnEntry(t *testing.T) {
	stream, env, _, schema := driftStream(t, workload.TinySize())
	q, other := stream[0], stream[len(stream)-1]
	if q.SQL == other.SQL {
		t.Fatal("the stream's first and last statements are one text")
	}
	for _, lead := range []*sqlparse.SelectStmt{nil, other.Stmt} {
		var counters Counters
		c := New(env, &counters)
		if lead != nil {
			if _, err := c.OnDemand(lead); err != nil {
				t.Fatal(err)
			}
		}
		before := counters.FullOptimizations.Load()
		a, err := c.OnDemand(reparse(t, schema, q.SQL))
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.OnDemand(reparse(t, schema, q.SQL))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("another statement first: %v; two parses of one text found two entries", lead != nil)
		}
		if n := counters.FullOptimizations.Load() - before; n != 1 {
			t.Fatalf("another statement first: %v; two parses of one text cost %d full optimizations, want 1", lead != nil, n)
		}
	}
}

// TestConcurrentAskersBuildOnce asks a fresh cache for one statement from
// many goroutines at once — half with one tree, half with parses of its
// text of their own — and requires one entry, built once. Run it under
// -race.
func TestConcurrentAskersBuildOnce(t *testing.T) {
	stream, env, _, schema := driftStream(t, workload.TinySize())
	q := stream[0]
	const askers = 8
	for round := 0; round < 20; round++ {
		var counters Counters
		c := New(env, &counters)
		stmts := make([]*sqlparse.SelectStmt, askers)
		for i := range stmts {
			stmts[i] = q.Stmt
			if i%2 == 1 {
				stmts[i] = reparse(t, schema, q.SQL)
			}
		}
		entries := make([]*CachedQuery, askers)
		var wg sync.WaitGroup
		for i, stmt := range stmts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cq, err := c.OnDemand(stmt)
				if err != nil {
					t.Error(err)
				}
				entries[i] = cq
			}()
		}
		wg.Wait()
		for i, cq := range entries {
			if cq != entries[0] {
				t.Fatalf("round %d: asker %d found another entry", round, i)
			}
		}
		if n := counters.FullOptimizations.Load(); n != 1 {
			t.Fatalf("round %d: %d askers cost %d full optimizations, want 1", round, askers, n)
		}
	}
}
