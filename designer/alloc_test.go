//go:build !race

package designer_test

import (
	"context"
	"runtime"
	"testing"

	"repro/designer"
)

// TestAdviseAllocationCeiling guards what the benchmark's advise_full
// workload measures, in tier-1 and in a second: one fixed 48-statement
// script, SQL text in, full advice (partitions, interactions) and DDL out,
// on the tiny dataset. An answer allocates 640 KB (it repeats to a few
// KB); the ceiling sits a tenth above. The same answer allocated 1,002 KB
// while the index advisors priced each set of structures as a configuration
// — built, digested per table, and keyed by its visible structures in a
// per-query memo that numbered every structure afresh — 1,154 KB while
// CoPhy's one solve carried every query and every candidate
// into its tableau, also those no budget can move (the presolve in the cophy
// package comment drops them), 1,366 KB while INUM built the plan tree of every template it read, walked
// it twice and keyed the template on a rendered signature, 2,124 KB
// while INUM keyed its access memo on each partition layout's rendered text,
// so every AutoPart trial missed it for every query of the trial's table,
// and every configuration made both of its layout maps, 2,796 KB
// while every plan search allocated its buffers afresh and every delta
// evaluation rendered a relevance signature per query and table, 2,922 KB
// while the parser read a token list the lexer built before it, 4,035 KB
// while its one branch-and-bound node solved a dense tableau with a row for
// every binary's x <= 1, 4,155 KB
// while INUM kept one entry per caller's id, so a text repeated under two
// ids in one question was built twice, 4,610 KB
// while the plan search, INUM and the candidate passes each derived a
// statement's analysis for themselves, 6,003 KB while the plan search built
// a node for every plan it considered, and 45,740 KB while INUM rendered a
// configuration signature per query and table, built a node for every
// access path it then discarded and keyed its memo on every structure of
// the table, so a costing path that starts allocating per call again trips
// this long before the ceiling's slack matters. (Not under -race: the
// detector's instrumentation allocates.)
func TestAdviseAllocationCeiling(t *testing.T) {
	const ceilingKB = 700
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := d.GenerateWorkload(7, 48)
	if err != nil {
		t.Fatal(err)
	}
	var script []string
	for _, q := range gen.Queries() {
		script = append(script, q.SQL())
	}
	answer := func() {
		w, err := d.WorkloadFromSQL(script)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := d.Advise(ctx, w, designer.AdviceOptions{Partitions: true, Interactions: true})
		if err != nil {
			t.Fatal(err)
		}
		if adv.DDL() == "" {
			t.Fatal("no DDL advised")
		}
	}
	answer() // warm-up: lazy one-time state
	const answers = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < answers; i++ {
		answer()
	}
	runtime.ReadMemStats(&after)
	perAnswerKB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / answers
	t.Logf("%.0f KB an answer, ceiling %d KB", perAnswerKB, ceilingKB)
	if perAnswerKB > ceilingKB {
		t.Fatalf("one advise answer allocates %.0f KB, ceiling %d KB", perAnswerKB, ceilingKB)
	}
}

// TestObserveAllocationCeiling guards what the benchmark's online_stream
// workload measures past the parse: a fresh online tuner observing a fixed
// drifting stream (300 statements, tiny dataset), where every observation
// pins a view of its own, so each statement's INUM entry — its no-order
// template, one full optimization — is built anew and priced once or twice.
// Each round observes trees of its own, parsed after a GC that leaves none
// of the last round's to share, so what a statement's tree memoizes — its
// analysis, its key — is paid in the round, as the benchmark pays it for
// every new statement. A statement allocates 2,540 B; the ceiling sits a
// tenth above. The same stream allocated 3,880 B a statement while every
// observation's cache rendered its statement's key and made a slot map for
// it, numbered its structures in a sync.Map of their own and extended the
// pricing table once per structure, and 5,251 B (trees shared across rounds)
// while INUM built each template's plan tree, walked it twice and keyed the
// template on a rendered signature, so a cache that starts paying for a
// second statement, or a template build that starts building plans again,
// trips this. (Not under -race: the detector's instrumentation allocates.)
func TestObserveAllocationCeiling(t *testing.T) {
	const ceilingBytes = 2794
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := d.DriftStream(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	ids, sqls := make([]string, len(stream)), make([]string, len(stream))
	for i, q := range stream {
		ids[i], sqls[i] = q.ID(), q.SQL()
	}
	stream = nil
	// parse returns the stream as trees of its own.
	parse := func() []designer.Query {
		runtime.GC()
		qs := make([]designer.Query, len(sqls))
		for i, sql := range sqls {
			q, err := d.ParseQuery(ids[i], sql)
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = q
		}
		return qs
	}
	// observe returns what observing the stream allocates.
	observe := func(qs []designer.Query) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tuner := d.NewOnlineTuner(designer.DefaultTunerOptions())
		if _, err := tuner.ObserveAll(ctx, qs); err != nil {
			t.Fatal(err)
		}
		tuner.Close()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	observe(parse()) // warm-up: lazy one-time state
	const rounds = 3
	var total uint64
	for i := 0; i < rounds; i++ {
		total += observe(parse())
	}
	perStmt := float64(total) / float64(rounds*len(sqls))
	t.Logf("%.0f B a statement, ceiling %d B", perStmt, ceilingBytes)
	if perStmt > ceilingBytes {
		t.Fatalf("observing one statement allocates %.0f B, ceiling %d B", perStmt, ceilingBytes)
	}
}

// TestWorkloadFromSQLAllocationCeiling guards the parse that the front door
// pays for every statement it has not seen while the statement's tree lived:
// 960 generated statements, SQL text in, a resolved *Workload out, on the
// tiny dataset. Each parse follows a GC that collected the last parse's
// trees, so every statement misses the designer's table of shared trees and
// is parsed (TestWorkloadFromSQLHitAllocationCeiling measures the hits). A
// statement allocates 991 B, its tree and its resolution (1,032 B with the
// table's weak pointer and cleanup), and the ceiling sits at a tenth above
// the table-free reading. The same parse allocated 3,633 B a statement
// while the parser read a token list the lexer built first, upper-casing
// every word to ask whether it was a keyword, so a parser that starts
// collecting tokens, or a lexer that allocates per token, trips this. (Not
// under -race: the detector's instrumentation allocates.)
func TestWorkloadFromSQLAllocationCeiling(t *testing.T) {
	const ceilingBytes = 1090
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := d.GenerateWorkload(7, 960)
	if err != nil {
		t.Fatal(err)
	}
	var script []string
	seen := map[string]bool{}
	for _, q := range gen.Queries() {
		if !seen[q.SQL()] {
			seen[q.SQL()] = true
			script = append(script, q.SQL())
		}
	}
	// parse returns what one parse of the script allocated, after a GC
	// that leaves none of the last parse's trees to share: its texts are
	// distinct, so none shares a tree with another either.
	parse := func() uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := d.WorkloadFromSQL(script)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if w.Len() != len(script) {
			t.Fatalf("%d queries from %d statements", w.Len(), len(script))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	parse() // warm-up: lazy one-time state
	const parses = 3
	var total uint64
	for i := 0; i < parses; i++ {
		total += parse()
	}
	perStmt := float64(total) / float64(parses*len(script))
	t.Logf("%.0f B a statement, ceiling %d B", perStmt, ceilingBytes)
	if perStmt > ceilingBytes {
		t.Fatalf("parsing one statement allocates %.0f B, ceiling %d B", perStmt, ceilingBytes)
	}
}

// TestReAdviseAllocationCeiling guards what the benchmark's readvise_budget
// workload measures: one session, primed by an unconstrained advice on a
// fixed 48-statement script (tiny dataset), walked down the benchmark's
// budget ladder, where most of an answer is CoPhy's branch-and-bound. An
// answer allocates 23 KB; the ceiling sits a tenth above. The same walk
// allocated 47 KB an answer while every rung's solve made its own simplex
// workspace, every row of the program was copied into a map of its own and
// the per-query plans grew by appending, 52 KB while the engine's
// evaluation held a row with the query's ID and SQL for every statement and
// the facade copied those rows again, 181 KB an answer, two thirds of it the solver's workspace, while
// CoPhy wrote every query and every candidate into the tableau, also the
// queries whose plan no budget can change and the candidates no plan uses
// (the presolve in the cophy package comment drops them), 381 KB while
// every rung rebuilt CoPhy's program (prepare, baseline pricing and atom
// enumeration) instead of solving the one the session's advisor kept,
// 444 KB while every configuration made both of its
// layout maps, empty or not, 506 KB while every plan search allocated its buffers
// afresh and every delta evaluation rendered a relevance signature per
// query and table, and 9,178 KB while every node of the search built a fresh
// dense tableau with a row, and a map, for every variable bound and branch
// fixing, so a solver that starts allocating per node again trips this.
// (Not under -race: the detector's instrumentation allocates.)
func TestReAdviseAllocationCeiling(t *testing.T) {
	const ceilingKB = 26
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.GenerateWorkload(7, 48)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewDesignSession()
	free, err := s.Advise(ctx, w, designer.AdviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var footprint int64
	for _, ix := range free.Indexes {
		footprint += ix.EstimatedPages
	}
	ladder := []float64{0.9, 0.5, 0.75, 0.25, 0.6, 0.1, 0.4}
	nodes := 0
	walk := func() {
		for _, rung := range ladder {
			budget := max(1, int64(rung*float64(footprint)))
			adv, _, err := s.ReAdvise(ctx, w, designer.AdviceOptions{StorageBudgetPages: budget})
			if err != nil {
				t.Fatal(err)
			}
			nodes += adv.Solver.Nodes
		}
	}
	walk() // warm-up: lazy one-time state
	const walks = 2
	nodes = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < walks; i++ {
		walk()
	}
	runtime.ReadMemStats(&after)
	answers := float64(walks * len(ladder))
	perAnswerKB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / answers
	t.Logf("%.0f KB an answer (%.1f branch-and-bound nodes), ceiling %d KB", perAnswerKB, float64(nodes)/answers, ceilingKB)
	if perAnswerKB > ceilingKB {
		t.Fatalf("one re-advise answer allocates %.0f KB, ceiling %d KB", perAnswerKB, ceilingKB)
	}
}

// TestEvaluateEditAllocationCeiling guards what the benchmark's whatif_edit
// workload measures: Scenario 1's loop of one index added or dropped, then
// the whole workload (300 generated statements, tiny dataset) re-evaluated,
// which re-plans every statement that can see the edited table. An edit
// allocates 23 KB (it repeats to a KB); the ceiling sits a tenth above. The
// same loop allocated 37 KB an edit while every delta cloned a row with the
// query's ID and SQL for every statement to change the re-priced ones'
// costs and the facade copied those rows again, 199 KB an edit while every
// plan search allocated its buffers afresh and the delta rendered a
// relevance signature for every query and table to find the ones an edit
// reaches, 294 KB while the plan
// search derived each statement's analysis (its predicate split and
// referenced columns) on every costing, and 553 KB while it built a node
// for every plan it considered, so a search that starts allocating per
// call, deriving what its statement carries or building its losers again,
// or a delta that renders strings per query again, trips this. (Not under
// -race: the detector's instrumentation allocates.)
func TestEvaluateEditAllocationCeiling(t *testing.T) {
	const ceilingKB = 26
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.GenerateWorkload(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	edits := [][]string{
		{"photoobj", "type", "psfmag_r"}, {"photoobj", "ra", "dec"}, {"photoobj", "psfmag_r"},
		{"photoobj", "fieldid"}, {"photoobj", "objid"}, {"specobj", "bestobjid"}, {"specobj", "class", "z"},
		{"specobj", "z"}, {"neighbors", "objid"}, {"neighbors", "distance"}, {"field", "quality"},
	}
	sess := d.NewDesignSession()
	evaluate := func() {
		if _, err := sess.Evaluate(ctx, w); err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		for _, e := range edits {
			ix, err := sess.AddIndex(e[0], e[1:]...)
			if err != nil {
				t.Fatal(err)
			}
			evaluate()
			if !sess.DropIndex(ix.Key()) {
				t.Fatalf("index %s is not in the design", ix.Key())
			}
			evaluate()
		}
	}
	evaluate()
	round() // warm-up: lazy one-time state
	const rounds = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perEditKB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / (rounds * 2 * float64(len(edits)))
	t.Logf("%.0f KB an edit, ceiling %d KB", perEditKB, ceilingKB)
	if perEditKB > ceilingKB {
		t.Fatalf("one edit and evaluation allocate %.0f KB, ceiling %d KB", perEditKB, ceilingKB)
	}
}

// keySink keeps TestIndexKeyAllocatesOnce's renderings alive.
var keySink string

// TestIndexKeyAllocatesOnce holds Index.Key to the one allocation of its
// rendering: the key is rendered from the spec by catalog.StructureKey. It
// made three allocations for an index and four for a projection while Key
// converted the DTO into a whole catalog.Index first.
func TestIndexKeyAllocatesOnce(t *testing.T) {
	for _, ix := range []designer.Index{
		{Table: "photoobj", Columns: []string{"type", "psfmag_r"}},
		{Table: "photoobj", Columns: []string{"run"}, Kind: "projection", Include: []string{"ra", "objid"}},
		{Table: "photoobj", Columns: []string{"run", "camcol"}, Kind: "aggview", Aggs: []string{"count(*)"}},
	} {
		if n := testing.AllocsPerRun(100, func() { keySink = ix.Key() }); n != 1 {
			t.Errorf("%s: %v allocations a Key, want 1", ix.Key(), n)
		}
	}
}
