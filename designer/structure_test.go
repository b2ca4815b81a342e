package designer_test

import (
	"context"
	"strings"
	"testing"

	"repro/designer"
)

// aggWorkload builds a small deterministic workload with single-table
// aggregate queries that an aggregate view can answer.
func aggWorkload(t *testing.T, d *designer.Designer) *designer.Workload {
	t.Helper()
	w, err := d.WorkloadFromSQL([]string{
		"SELECT run, camcol, COUNT(*) FROM photoobj GROUP BY run, camcol",
		"SELECT run, COUNT(*) FROM photoobj GROUP BY run",
		"SELECT objid FROM photoobj WHERE objid = 1000100",
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestIndexOnlyAdviceUnchangedByRefactor is the regression pin for the
// structure refactor: plain-index advice must be bit-identical run to run
// and contain no structure kinds — DTO kind stays "", candidate enumeration
// stays secondary-only, and Advise and ReAdvise agree on the same design
// and objective. Together with the byte-identical committed
// baselines, this pins "plain-index workloads behave exactly as before".
func TestIndexOnlyAdviceUnchangedByRefactor(t *testing.T) {
	ctx := context.Background()
	type run struct {
		keys      []string
		objective float64
		newTotal  float64
	}
	doRun := func() run {
		d := open(t)
		w := sdssWorkload(t, d, 12)
		advice, err := d.Advise(ctx, w, designer.AdviceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, ix := range advice.Indexes {
			if ix.Kind != "" {
				t.Fatalf("plain-index advice returned a %q structure: %s", ix.Kind, ix.Key())
			}
			keys = append(keys, ix.Key())
		}
		// A warm ReAdvise of the identical question must agree bit-for-bit.
		sess := d.NewDesignSession()
		if _, err := sess.Advise(ctx, w, designer.AdviceOptions{}); err != nil {
			t.Fatal(err)
		}
		warm, _, err := sess.ReAdvise(ctx, w, designer.AdviceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Solver.Objective != advice.Solver.Objective {
			t.Fatalf("warm re-advise objective %v, advise %v", warm.Solver.Objective, advice.Solver.Objective)
		}
		if len(warm.Indexes) != len(advice.Indexes) {
			t.Fatalf("warm re-advise changed the design: %d vs %d indexes",
				len(warm.Indexes), len(advice.Indexes))
		}
		for i := range warm.Indexes {
			if warm.Indexes[i].Key() != advice.Indexes[i].Key() {
				t.Fatalf("warm re-advise index %d: %s vs %s",
					i, warm.Indexes[i].Key(), advice.Indexes[i].Key())
			}
		}
		return run{keys: keys, objective: advice.Solver.Objective, newTotal: advice.Report.NewTotal}
	}
	a, b := doRun(), doRun()
	if strings.Join(a.keys, ";") != strings.Join(b.keys, ";") {
		t.Fatalf("advice not deterministic:\n%v\n%v", a.keys, b.keys)
	}
	if a.objective != b.objective || a.newTotal != b.newTotal {
		t.Fatalf("report totals not bit-identical: %v vs %v", a, b)
	}
}

// TestWideningFlagAloneIsHonored: AdviceOptions carrying nothing but a
// widening flag takes the default candidate sizing and still widens — the
// flag is not dropped along with the missing sizes.
func TestWideningFlagAloneIsHonored(t *testing.T) {
	d := open(t)
	advice, err := d.Advise(context.Background(), aggWorkload(t, d), designer.AdviceOptions{
		CandidateOptions: designer.CandidateOptions{IncludeAggViews: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range advice.Indexes {
		if ix.Kind == "aggview" {
			return
		}
	}
	t.Fatalf("IncludeAggViews alone advised no aggregate view: %+v", advice.Indexes)
}

// TestWideAdvicePicksStructures runs the widened pipeline end to end: with
// projections and aggregate views admitted, an aggregate-heavy workload gets
// a mixed-kind design whose DDL and schedule carry the structures.
func TestWideAdvicePicksStructures(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w := aggWorkload(t, d)

	opts := designer.AdviceOptions{Interactions: true}
	opts.CandidateOptions.IncludeAggViews = true
	opts.CandidateOptions.IncludeProjections = true
	advice, err := d.Advise(ctx, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mv *designer.Index
	for i, ix := range advice.Indexes {
		if ix.Kind == "aggview" {
			mv = &advice.Indexes[i]
		}
	}
	if mv == nil {
		t.Fatalf("no aggregate view in the advised design: %+v", advice.Indexes)
	}
	if len(mv.Aggs) == 0 || mv.EstimatedRows <= 0 {
		t.Fatalf("advised view is not fully described: %+v", mv)
	}
	ddl := advice.DDL()
	if !strings.Contains(ddl, "CREATE MATERIALIZED VIEW mv_photoobj") {
		t.Fatalf("DDL does not materialize the view:\n%s", ddl)
	}
	if advice.Schedule != nil {
		found := false
		for _, st := range advice.Schedule.Steps {
			if st.Index.Kind == "aggview" {
				found = true
			}
		}
		if !found {
			t.Errorf("schedule does not place the advised view")
		}
	}

	// The same workload advised without the flags stays index-only.
	plain, err := d.Advise(ctx, w, designer.AdviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range plain.Indexes {
		if ix.Kind != "" {
			t.Fatalf("default advice admitted a %q structure", ix.Kind)
		}
	}
	if advice.Report.NewTotal >= plain.Report.NewTotal {
		t.Errorf("widened design should cost less: %.2f vs %.2f",
			advice.Report.NewTotal, plain.Report.NewTotal)
	}
}

// TestSessionStructures exercises the interactive surface: add a projection
// and an aggregate view to a what-if session, evaluate, and drop by key.
func TestSessionStructures(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w := aggWorkload(t, d)
	sess := d.NewDesignSession()

	proj, err := sess.AddProjection("photoobj", []string{"objid"}, []string{"ra", "dec"})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Kind != "projection" || !strings.Contains(proj.Key(), "include(") {
		t.Fatalf("bad projection DTO: %+v", proj)
	}
	mv, err := sess.AddAggView("photoobj", []string{"run", "camcol"}, []string{"count(*)"})
	if err != nil {
		t.Fatal(err)
	}
	if mv.Kind != "aggview" || mv.EstimatedRows <= 0 {
		t.Fatalf("bad aggview DTO: %+v", mv)
	}
	if _, err := sess.AddAggView("photoobj", []string{"run", "camcol"}, []string{"count(*)"}); err == nil {
		t.Fatal("duplicate structure must be rejected")
	}
	rep, err := sess.Evaluate(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewTotal >= rep.BaseTotal {
		t.Errorf("structures should help the aggregate workload: %.2f vs %.2f",
			rep.NewTotal, rep.BaseTotal)
	}
	if !sess.DropIndex(mv.Key()) {
		t.Fatalf("DropIndex(%q) did not find the view", mv.Key())
	}
}

// TestMaterializeRejectsAdvisoryStructures pins Materialize's contract:
// non-secondary structures are advisory-only, with the DDL as the build
// path, and the error says so instead of silently building the wrong thing.
func TestMaterializeRejectsAdvisoryStructures(t *testing.T) {
	d := open(t)
	_, err := d.Materialize(context.Background(), []designer.Index{{
		Table: "photoobj", Columns: []string{"run"},
		Kind: "aggview", Aggs: []string{"count(*)"},
	}})
	if err == nil || !strings.Contains(err.Error(), "advisory-only") {
		t.Fatalf("materializing an aggview must fail with the advisory-only error, got %v", err)
	}
}
