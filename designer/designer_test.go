package designer_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/designer"
)

func open(t *testing.T) *designer.Designer {
	t.Helper()
	d, err := designer.OpenSDSS("tiny", 111)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sdssWorkload(t *testing.T, d *designer.Designer, n int) *designer.Workload {
	t.Helper()
	w, err := d.GenerateWorkload(112, n)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkloadFromSQLAndScript(t *testing.T) {
	d := open(t)
	w, err := d.WorkloadFromSQL([]string{
		"SELECT objid FROM photoobj WHERE objid = 1000001",
		"SELECT z FROM specobj WHERE z > 1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Fatalf("queries = %d", w.Len())
	}
	w2, err := d.WorkloadFromScript(`
		SELECT objid FROM photoobj WHERE objid = 1;
		SELECT z FROM specobj WHERE z > 1;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Len() != 2 {
		t.Fatalf("script queries = %d", w2.Len())
	}
	if _, err := d.WorkloadFromSQL([]string{"SELECT nope FROM photoobj"}); err == nil {
		t.Fatal("bad column should fail")
	}

	// A parameter parses, but only a live import can bind one: every parse
	// door refuses the statement at the parameter's position.
	const open = "SELECT objid FROM photoobj WHERE ra > 1 AND type = $1"
	_, errQuery := d.ParseQuery("q", open)
	_, errSQL := d.WorkloadFromSQL([]string{"SELECT z FROM specobj", open + " LIMIT $2"})
	_, errScript := d.WorkloadFromScript("SELECT z FROM specobj;\n" + open)
	_, errLimit := d.ParseQuery("q", "SELECT objid FROM photoobj LIMIT $2")
	for door, tc := range map[string]struct {
		err  error
		want string
	}{
		"ParseQuery":         {errQuery, "sql:1:52: parameter $1 is not bound"},
		"WorkloadFromSQL":    {errSQL, "query 1: sql:1:52: parameter $1 is not bound"},
		"WorkloadFromScript": {errScript, "sql:2:52: parameter $1 is not bound"},
		"ParseQuery LIMIT":   {errLimit, "sql:1:34: parameter $2 is not bound"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", door, tc.err, tc.want)
		}
	}
	// A self-join is refused at the door too, not handed on with its two
	// copies' references collapsed into one table name.
	if _, err := d.ParseQuery("q", "SELECT a.objid FROM photoobj a, photoobj b WHERE a.objid = b.parentid"); err == nil || !strings.Contains(err.Error(), "self-join") {
		t.Errorf("ParseQuery of a self-join: err = %v", err)
	}
}

func TestAdviseEndToEnd(t *testing.T) {
	d := open(t)
	w := sdssWorkload(t, d, 12)
	advice, err := d.Advise(context.Background(), w, designer.AdviceOptions{
		Partitions:   true,
		Interactions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(advice.Indexes) == 0 {
		t.Fatal("no indexes advised")
	}
	if advice.Report == nil || advice.Report.TotalBenefit() <= 0 {
		t.Fatal("advice must report positive benefit")
	}
	if advice.Schedule == nil || len(advice.Schedule.Steps) != len(advice.Indexes) {
		t.Fatal("schedule missing or incomplete")
	}
	if advice.Graph == nil {
		t.Fatal("interaction graph missing")
	}
	sum := advice.Summary()
	for _, want := range []string{"Suggested indexes", "Workload benefit", "materialization schedule"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestAdvisedIndexesServeAChosenPlan holds CoPhy's design to the plans it
// chose: under a budget, an index variable costs nothing in the objective,
// so the solver may leave one open that no chosen plan uses. On this tiny
// workload, at a quarter of the unconstrained footprint, the solver left
// field(fieldid) and field(quality) open (2 of 4 advised indexes, 2 of the
// 19 budget pages); the design must not include them.
func TestAdvisedIndexesServeAChosenPlan(t *testing.T) {
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.GenerateWorkload(6, 12)
	if err != nil {
		t.Fatal(err)
	}
	free, err := d.Advise(ctx, w, designer.AdviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var footprint int64
	for _, ix := range free.Indexes {
		footprint += ix.EstimatedPages
	}
	advice, err := d.Advise(ctx, w, designer.AdviceOptions{StorageBudgetPages: footprint / 4})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, qp := range advice.Solver.PerQuery {
		for _, ix := range qp.Indexes {
			used[ix.Key()] = true
		}
	}
	for _, ix := range advice.Indexes {
		if !used[ix.Key()] {
			t.Errorf("%s (%d pages) is advised, but no chosen plan uses it", ix.Key(), ix.EstimatedPages)
		}
	}
}

func TestMaterializeAdvice(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w := sdssWorkload(t, d, 8)
	advice, err := d.Advise(ctx, w, designer.AdviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(advice.Indexes) == 0 {
		t.Skip("nothing advised on this workload")
	}
	io, err := d.Materialize(ctx, advice.Indexes)
	if err != nil {
		t.Fatal(err)
	}
	if io.Total() == 0 {
		t.Fatal("materialization should cost I/O")
	}
	cur := d.CurrentConfiguration()
	for _, ix := range advice.Indexes {
		if !cur.HasIndex(ix.Key()) {
			t.Fatalf("index %s not materialized", ix.Key())
		}
	}
	// Executing a query now uses the real indexes; estimated cost under
	// the materialized design must not exceed the before-design cost.
	q := w.Query(0)
	after, err := d.Cost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after <= 0 {
		t.Fatal("degenerate cost")
	}
	// Re-materializing is a no-op.
	io2, err := d.Materialize(ctx, advice.Indexes)
	if err != nil {
		t.Fatal(err)
	}
	if io2.Total() != 0 {
		t.Fatal("second materialize should be a no-op")
	}
}

func TestDesignSessionScenario1(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w := sdssWorkload(t, d, 10)
	s := d.NewDesignSession()

	if _, err := s.AddIndex("photoobj", "psfmag_r"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddIndex("photoobj", "psfmag_r", "type"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddIndex("specobj", "bestobjid"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddIndex("photoobj", "psfmag_r"); err == nil {
		t.Fatal("duplicate index should error")
	}

	rep, err := s.Evaluate(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewTotal > rep.BaseTotal {
		t.Fatalf("what-if design made things worse: %f -> %f", rep.BaseTotal, rep.NewTotal)
	}

	g, err := s.InteractionGraph(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Indexes()) != 3 {
		t.Fatalf("graph over %d indexes, want 3", len(g.Indexes()))
	}

	if !s.DropIndex("specobj(bestobjid)") {
		t.Fatal("drop failed")
	}
	if s.DropIndex("specobj(bestobjid)") {
		t.Fatal("double drop should fail")
	}
}

func TestDesignSessionPartitions(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w, err := d.WorkloadFromSQL([]string{
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 120",
	})
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewDesignSession()

	tab, ok := d.DescribeTable("photoobj")
	if !ok {
		t.Fatal("photoobj missing from Describe")
	}
	var hot, cold []string
	for _, c := range tab.Columns {
		lc := strings.ToLower(c.Name)
		switch lc {
		case "objid":
		case "ra", "dec":
			hot = append(hot, lc)
		default:
			cold = append(cold, lc)
		}
	}
	if err := s.AddVerticalPartition("photoobj", [][]string{hot, cold}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHorizontalPartition("photoobj", "ra", 8); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Evaluate(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBenefit() <= 0 {
		t.Fatalf("partitioned design should help a cone search: %f -> %f",
			rep.BaseTotal, rep.NewTotal)
	}

	rw := s.RewrittenQueries(w)
	if len(rw) != 1 {
		t.Fatalf("rewritten queries = %d, want 1", len(rw))
	}
	for _, sql := range rw {
		if !strings.Contains(sql, "photoobj__f0") {
			t.Fatalf("rewrite missing fragment table: %s", sql)
		}
	}
}

func TestDesignSessionValidation(t *testing.T) {
	d := open(t)
	s := d.NewDesignSession()
	if err := s.AddVerticalPartition("nosuch", nil); err == nil {
		t.Error("unknown table should error")
	}
	if err := s.AddVerticalPartition("photoobj", [][]string{{"objid"}}); err == nil {
		t.Error("PK column in fragment should error")
	}
	if err := s.AddVerticalPartition("photoobj", [][]string{{"ra"}, {"ra"}}); err == nil {
		t.Error("duplicate column should error")
	}
	if err := s.AddVerticalPartition("photoobj", [][]string{{"ra"}}); err == nil {
		t.Error("missing columns should error")
	}
	if err := s.AddHorizontalPartition("photoobj", "ra", 1); err == nil {
		t.Error("k=1 should error")
	}
	if err := s.AddHorizontalPartition("photoobj", "nope", 4); err == nil {
		t.Error("unknown column should error")
	}
}

// TestAddVerticalPartitionKeepsItsOwnLowerCaseCopy pins what the session
// stores of a vertical layout: the caller's fragments lower-cased, in a copy.
// Fragments spelled in mixed case price bit for bit as their lower-case
// spelling, and editing the caller's slices after the call moves no later
// evaluation — while handing the edited fragments over does.
func TestAddVerticalPartitionKeepsItsOwnLowerCaseCopy(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w, err := d.WorkloadFromSQL([]string{
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 120",
		"SELECT psfmag_r FROM photoobj WHERE type = 6",
		"SELECT ra, psfmag_r FROM photoobj WHERE dec < 5",
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := d.DescribeTable("photoobj")
	if !ok {
		t.Fatal("photoobj missing from Describe")
	}
	// fragments returns {ra, dec}, {psfmag_r, type} and the rest, each
	// column spelled by spell.
	fragments := func(spell func(string) string) [][]string {
		frags := make([][]string, 3)
		for _, c := range tab.Columns {
			lc := strings.ToLower(c.Name)
			switch lc {
			case "objid":
			case "ra", "dec":
				frags[0] = append(frags[0], spell(lc))
			case "psfmag_r", "type":
				frags[1] = append(frags[1], spell(lc))
			default:
				frags[2] = append(frags[2], spell(lc))
			}
		}
		return frags
	}
	evaluate := func(frags [][]string, after func()) []float64 {
		s := d.NewDesignSession()
		if err := s.AddVerticalPartition("photoobj", frags); err != nil {
			t.Fatal(err)
		}
		after()
		rep, err := s.Evaluate(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		var costs []float64
		for _, q := range rep.Queries {
			costs = append(costs, q.NewCost)
		}
		return costs
	}
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	nothing := func() {}
	mixed := func(c string) string {
		if len(c)%2 == 0 {
			return strings.ToUpper(c)
		}
		return strings.ToUpper(c[:1]) + c[1:]
	}
	lower := evaluate(fragments(strings.ToLower), nothing)
	if got := evaluate(fragments(mixed), nothing); !same(got, lower) {
		t.Errorf("mixed-case fragments price %v, lower-case %v", got, lower)
	}

	// Swap ra and psfmag_r between the caller's first two fragments after
	// the call.
	swap := func(frags [][]string) {
		i, j := slices.Index(frags[0], "ra"), slices.Index(frags[1], "psfmag_r")
		frags[0][i], frags[1][j] = frags[1][j], frags[0][i]
	}
	edited := fragments(strings.ToLower)
	if got := evaluate(edited, func() { swap(edited) }); !same(got, lower) {
		t.Errorf("editing the caller's fragments after the call moved the costs to %v, from %v", got, lower)
	}
	swapped := fragments(strings.ToLower)
	swap(swapped)
	if got := evaluate(swapped, nothing); same(got, lower) {
		t.Errorf("the swapped layout prices as the original (%v): the edit has no teeth", got)
	}
}

func TestExplainAndExecute(t *testing.T) {
	d := open(t)
	q, err := d.ParseQuery("q", "SELECT objid FROM photoobj WHERE objid = 1000001")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.Explain(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Seq Scan") {
		t.Fatalf("expected seq scan in %s", plan)
	}
	res, err := d.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}

	// The zero-value Configuration is the empty design — not "whatever is
	// materialized" — for every entry point that takes one. Tell the two
	// apart on a designer whose materialized design serves the query.
	ctx := context.Background()
	ix, err := d.HypotheticalIndex("photoobj", "psfmag_r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Materialize(ctx, []designer.Index{ix}); err != nil {
		t.Fatal(err)
	}
	w, err := d.WorkloadFromSQL([]string{"SELECT psfmag_r FROM photoobj WHERE psfmag_r BETWEEN 17 AND 18"})
	if err != nil {
		t.Fatal(err)
	}
	q = w.Query(0)
	type answer struct {
		cost, evaluated float64
		plan            string
	}
	ask := func(cfg *designer.Configuration) answer {
		t.Helper()
		var a answer
		var err error
		if a.cost, err = d.Cost(q, cfg); err != nil {
			t.Fatal(err)
		}
		if a.plan, err = d.Explain(q, cfg); err != nil {
			t.Fatal(err)
		}
		rep, err := d.Evaluate(ctx, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.evaluated = rep.NewTotal
		return a
	}
	zero, empty, materialized := ask(&designer.Configuration{}), ask(designer.NewConfiguration()), ask(nil)
	if zero != empty {
		t.Fatalf("&Configuration{} answers %+v, NewConfiguration() %+v", zero, empty)
	}
	if materialized.cost >= empty.cost || materialized.evaluated >= empty.evaluated || materialized.plan == empty.plan {
		t.Fatalf("the materialized index does not tell the designs apart: nil %+v, empty %+v", materialized, empty)
	}
}

func TestOnlineTunerIntegration(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	tuner := d.NewOnlineTuner(designer.DefaultTunerOptions())
	qs, err := d.DriftStream(113, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.ObserveAll(ctx, qs); err != nil {
		t.Fatal(err)
	}
	if len(tuner.Reports()) == 0 {
		t.Fatal("no epoch reports")
	}
}

// TestJoinSteeredEvaluateHonorsWorkers pins that a join-steered session
// evaluate runs on the designer's sweep pool: the reports at SetWorkers(1)
// and SetWorkers(4) are bit-identical, and steering changed what was priced.
func TestJoinSteeredEvaluateHonorsWorkers(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w := sdssWorkload(t, d, 16)
	evaluate := func(workers int, steer bool) *designer.Report {
		t.Helper()
		d.SetWorkers(workers)
		s := d.NewDesignSession()
		if _, err := s.AddIndex("specobj", "bestobjid"); err != nil {
			t.Fatal(err)
		}
		if steer {
			s.SetJoinControl(designer.JoinControl{DisableHashJoin: true, DisableMergeJoin: true})
		}
		rep, err := s.Evaluate(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial, wide := evaluate(1, true), evaluate(4, true)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("join-steered reports differ across widths: %v/%v at 1, %v/%v at 4",
			serial.BaseTotal, serial.NewTotal, wide.BaseTotal, wide.NewTotal)
	}
	if plain := evaluate(4, false); reflect.DeepEqual(plain, wide) {
		t.Fatal("join steering changed no cost — the switches did not reach the planner")
	}
}

// TestEvaluateCountsItsPlanSearches: the designer's plan-search count is
// the plan searches its views run — a cold session evaluate adds two a
// statement (the base design and the session's), and an evaluate after one
// added index adds exactly the statements its delta recosted.
func TestEvaluateCountsItsPlanSearches(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w := sdssWorkload(t, d, 24)
	s := d.NewDesignSession()
	searches := func(evaluate func()) int64 {
		before := d.CacheStats().PlanSearches
		evaluate()
		return d.CacheStats().PlanSearches - before
	}
	evaluate := func() {
		if _, err := s.Evaluate(ctx, w); err != nil {
			t.Fatal(err)
		}
	}
	if got := searches(evaluate); got != 2*int64(w.Len()) {
		t.Fatalf("a cold evaluate of %d statements ran %d plan searches, want %d", w.Len(), got, 2*w.Len())
	}
	if _, err := s.AddIndex("photoobj", "psfmag_r"); err != nil {
		t.Fatal(err)
	}
	got := searches(evaluate)
	recosted, reused := s.LastEvaluateDelta()
	if recosted == 0 || reused == 0 {
		t.Fatalf("the add-one-index evaluate split %d+%d; the count below would prove little", recosted, reused)
	}
	if got != int64(recosted) {
		t.Fatalf("the add-one-index evaluate ran %d plan searches, its delta recosted %d statements", got, recosted)
	}
}

// TestSteeredEvaluateReportsItsOwnSplit: a join-steered Evaluate re-prices
// every query, and says so — it does not leave the previous delta
// evaluation's split standing as its own.
func TestSteeredEvaluateReportsItsOwnSplit(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w := sdssWorkload(t, d, 12)
	s := d.NewDesignSession()
	if _, err := s.Evaluate(ctx, w); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddIndex("specobj", "z"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(ctx, w); err != nil {
		t.Fatal(err)
	}
	if _, reused := s.LastEvaluateDelta(); reused == 0 {
		t.Fatal("the add-one-index evaluate reused nothing; the steered read below would prove nothing")
	}
	s.SetJoinControl(designer.JoinControl{DisableHashJoin: true})
	if _, err := s.Evaluate(ctx, w); err != nil {
		t.Fatal(err)
	}
	if recosted, reused := s.LastEvaluateDelta(); recosted != 12 || reused != 0 {
		t.Fatalf("steered evaluate reports a %d+%d split, want 12+0", recosted, reused)
	}
}

// TestClearedJoinControlDeltaCosts: SetJoinControl with every switch off
// returns a session to delta costing — a repeated Evaluate reuses every
// query instead of re-pricing the workload on the steered path — and its
// rows equal a fresh session's for the same design.
func TestClearedJoinControlDeltaCosts(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w := sdssWorkload(t, d, 24)
	s := d.NewDesignSession()
	if _, err := s.AddIndex("photoobj", "psfmag_r"); err != nil {
		t.Fatal(err)
	}
	s.SetJoinControl(designer.JoinControl{DisableHashJoin: true})
	if _, err := s.Evaluate(ctx, w); err != nil {
		t.Fatal(err)
	}
	s.SetJoinControl(designer.JoinControl{})
	var got *designer.Report
	for range 2 {
		var err error
		if got, err = s.Evaluate(ctx, w); err != nil {
			t.Fatal(err)
		}
	}
	if recosted, reused := s.LastEvaluateDelta(); recosted != 0 || reused != 24 {
		t.Fatalf("repeated evaluate after clearing the switches reports a %d+%d split, want 0+24", recosted, reused)
	}
	fresh := d.NewDesignSession()
	if _, err := fresh.AddIndex("photoobj", "psfmag_r"); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Evaluate(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows after clearing the switches differ from a fresh session's:\n got %+v\nwant %+v", got, want)
	}
}

// TestSteeredSessionMatchesFreshTwin: a join-steered session delta-costs
// its edits exactly. The session evaluates once unsteered — a state priced
// outside the switches — is steered, then walks a scripted history (an
// index, a projection, a vertical and a horizontal partition, a drop and a
// re-add), evaluating after each step. Every report equals a fresh
// session's evaluate of the same design under the same switches, row by
// row and in both totals, by Float64bits; the first steered report prices
// every query and differs from the unsteered one, and every evaluate after
// it recosts fewer queries than the workload holds.
func TestSteeredSessionMatchesFreshTwin(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w := sdssWorkload(t, d, 40)
	jc := designer.JoinControl{DisableHashJoin: true, DisableMergeJoin: true}
	history := []struct {
		name string
		edit func(*designer.DesignSession) error
	}{
		{"steer", func(*designer.DesignSession) error { return nil }},
		{"add specobj(bestobjid)", func(s *designer.DesignSession) error {
			_, err := s.AddIndex("specobj", "bestobjid")
			return err
		}},
		{"add projection photoobj(type) include psfmag_r", func(s *designer.DesignSession) error {
			_, err := s.AddProjection("photoobj", []string{"type"}, []string{"psfmag_r"})
			return err
		}},
		{"vertical field", func(s *designer.DesignSession) error {
			return s.AddVerticalPartition("field", [][]string{{"run", "camcol", "fieldnum", "quality", "mjd"}, {"ra_min", "ra_max", "dec_min", "dec_max"}})
		}},
		{"horizontal specobj(z)/4", func(s *designer.DesignSession) error {
			return s.AddHorizontalPartition("specobj", "z", 4)
		}},
		{"drop specobj(bestobjid)", func(s *designer.DesignSession) error {
			if !s.DropIndex("specobj(bestobjid)") {
				return errors.New("nothing dropped")
			}
			return nil
		}},
		{"re-add specobj(bestobjid)", func(s *designer.DesignSession) error {
			_, err := s.AddIndex("specobj", "bestobjid")
			return err
		}},
	}

	s := d.NewDesignSession()
	plain, err := s.Evaluate(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	s.SetJoinControl(jc)
	bits := math.Float64bits
	for k, step := range history {
		if err := step.edit(s); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		got, err := s.Evaluate(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		fresh := d.NewDesignSession()
		fresh.SetJoinControl(jc)
		for _, earlier := range history[:k+1] {
			if err := earlier.edit(fresh); err != nil {
				t.Fatalf("%s, replayed: %v", earlier.name, err)
			}
		}
		want, err := fresh.Evaluate(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if bits(got.BaseTotal) != bits(want.BaseTotal) || bits(got.NewTotal) != bits(want.NewTotal) {
			t.Fatalf("%s: totals %v -> %v, a fresh steered session's %v -> %v", step.name,
				got.BaseTotal, got.NewTotal, want.BaseTotal, want.NewTotal)
		}
		for i, g := range got.Queries {
			if x := want.Queries[i]; g.ID != x.ID || bits(g.BaseCost) != bits(x.BaseCost) || bits(g.NewCost) != bits(x.NewCost) {
				t.Fatalf("%s: row %d %+v, a fresh steered session's %+v", step.name, i, g, x)
			}
		}
		recosted, _ := s.LastEvaluateDelta()
		switch {
		case k == 0 && recosted != w.Len():
			t.Fatalf("the first steered evaluate recosted %d of %d queries: it reused a state priced outside the switches", recosted, w.Len())
		case k == 0 && reflect.DeepEqual(got, plain):
			t.Fatal("steering changed no cost — the switches did not reach the planner")
		case k > 0 && recosted >= w.Len():
			t.Fatalf("%s: recosted %d of %d queries — the steered session did not delta-cost", step.name, recosted, w.Len())
		}
	}
}

// TestSessionPinIsolation covers the serve layer's isolation contract: a
// design session created before a concurrent Materialize keeps evaluating
// against its pinned engine generation instead of tearing mid-run.
func TestSessionPinIsolation(t *testing.T) {
	ctx := context.Background()
	d := open(t)
	w, err := d.WorkloadFromSQL([]string{
		"SELECT psfmag_r FROM photoobj WHERE psfmag_r BETWEEN 17 AND 18",
	})
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewDesignSession()
	if _, err := s.AddIndex("photoobj", "psfmag_r"); err != nil {
		t.Fatal(err)
	}
	before, err := s.Evaluate(ctx, w)
	if err != nil {
		t.Fatal(err)
	}

	// Reconfigure the designer engine out from under the session.
	ix, err := d.HypotheticalIndex("photoobj", "psfmag_r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Materialize(ctx, []designer.Index{ix}); err != nil {
		t.Fatal(err)
	}

	// The pinned session still reports against its original base design,
	// so the benefit numbers are unchanged.
	after, err := s.Evaluate(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if after.BaseTotal != before.BaseTotal || after.NewTotal != before.NewTotal {
		t.Fatalf("pinned session drifted: %v/%v -> %v/%v",
			before.BaseTotal, before.NewTotal, after.BaseTotal, after.NewTotal)
	}

	// A session created after the materialization sees the new base: the
	// same query is now cheap before any what-if index is added.
	s2 := d.NewDesignSession()
	if _, err := s2.AddIndex("photoobj", "psfmag_r", "type"); err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Evaluate(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BaseTotal >= before.BaseTotal {
		t.Fatalf("new session should see the cheaper materialized base: %v vs %v",
			rep2.BaseTotal, before.BaseTotal)
	}
}

// TestSessionPartitionBoundsArePinned: a session cuts range-partition bounds
// from the statistics of the generation it pinned, not from whatever the
// store holds by the time it is asked. Two sessions open on one generation;
// the first partitions and evaluates, the table's ra distribution is then
// moved and re-analyzed, and the second — still on the old generation —
// must reproduce the first's report bit for bit.
func TestSessionPartitionBoundsArePinned(t *testing.T) {
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.GenerateWorkload(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	partitionAndEvaluate := func(s *designer.DesignSession) *designer.Report {
		t.Helper()
		if err := s.AddHorizontalPartition("photoobj", "ra", 4); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Evaluate(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := d.NewDesignSession(), d.NewDesignSession()
	repA := partitionAndEvaluate(a)

	// 3,000 rows at the top of the ra range move every quantile.
	photo, ok := d.DescribeTable("photoobj")
	if !ok {
		t.Fatal("no photoobj table")
	}
	rows := make([][]any, 3000)
	for i := range rows {
		row := make([]any, len(photo.Columns))
		for c, col := range photo.Columns {
			switch {
			case col.Name == "objid":
				row[c] = int64(900_000_000 + i)
			case col.Name == "ra":
				row[c] = 359.9
			case col.Type == "BIGINT":
				row[c] = int64(1)
			default:
				row[c] = 1.0
			}
		}
		rows[i] = row
	}
	if err := d.InsertRows("photoobj", rows); err != nil {
		t.Fatal(err)
	}
	if err := d.Analyze(); err != nil {
		t.Fatal(err)
	}

	repB := partitionAndEvaluate(b)
	if math.Float64bits(repA.BaseTotal) != math.Float64bits(repB.BaseTotal) ||
		math.Float64bits(repA.NewTotal) != math.Float64bits(repB.NewTotal) {
		t.Fatalf("two sessions on one generation disagree: %v -> %v before the re-analyze, %v -> %v after",
			repA.BaseTotal, repA.NewTotal, repB.BaseTotal, repB.NewTotal)
	}
	// A session opened now sees the moved quantiles.
	if repC := partitionAndEvaluate(d.NewDesignSession()); repC.NewTotal == repA.NewTotal {
		t.Fatalf("re-analyzed statistics did not reach a new session: NewTotal %v", repC.NewTotal)
	}
}
