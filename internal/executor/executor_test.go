package executor_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/workload"
)

// fixture builds a tiny SDSS store shared across tests in this package.
type fixture struct {
	store *storage.Store
	env   *optimizer.Env
	exec  *executor.Executor
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 21)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, store.MaterializedConfiguration())
	return &fixture{store: store, env: env, exec: executor.New(store)}
}

func (f *fixture) run(t *testing.T, sql string) *executor.Result {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, f.env.Schema); err != nil {
		t.Fatal(err)
	}
	env := f.env.WithConfig(f.store.MaterializedConfiguration())
	plan, err := env.Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.exec.Run(plan)
	if err != nil {
		t.Fatalf("%s:\n%s\n%v", sql, plan.Explain(), err)
	}
	return res
}

// canonical renders a result's rows as a sorted string set for
// order-independent comparison.
func canonical(res *executor.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, a, b *executor.Result, context string) {
	t.Helper()
	ca, cb := canonical(a), canonical(b)
	if len(ca) != len(cb) {
		t.Fatalf("%s: row counts differ: %d vs %d", context, len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("%s: row %d differs:\n%s\n%s", context, i, ca[i], cb[i])
		}
	}
}

func TestSeqScanFilter(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT objid, type FROM photoobj WHERE type = 6")
	if len(res.Rows) == 0 {
		t.Fatal("no stars found")
	}
	for _, r := range res.Rows {
		if r[1].I != 6 {
			t.Fatalf("filter leaked row %s", r)
		}
	}
	// Cross-check count against a direct heap scan.
	want := 0
	f.store.Heap("photoobj").Scan(nil, func(_ int64, r catalog.Row) bool {
		if r[3].I == 6 {
			want++
		}
		return true
	})
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
}

func TestIndexAndSeqPlansAgree(t *testing.T) {
	f := newFixture(t)
	queries := []string{
		"SELECT objid, ra FROM photoobj WHERE objid BETWEEN 1000100 AND 1000200",
		"SELECT objid, psfmag_r FROM photoobj WHERE type = 6 AND psfmag_r < 17",
		"SELECT objid, dec FROM photoobj WHERE ra BETWEEN 50 AND 60 AND dec > 0",
	}
	// Reference results: no indexes (pure seq scans).
	var before []*executor.Result
	for _, q := range queries {
		before = append(before, f.run(t, q))
	}
	// Materialize indexes; plans change, results must not.
	for _, spec := range [][]string{{"objid"}, {"type", "psfmag_r"}, {"ra"}} {
		name := "ix_" + strings.Join(spec, "_")
		if _, _, err := f.store.CreateIndex(name, "photoobj", spec); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range queries {
		after := f.run(t, q)
		sameRows(t, before[i], after, q)
	}
}

func TestJoinMethodsAgree(t *testing.T) {
	f := newFixture(t)
	sql := "SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z > 0.2"

	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, f.env.Schema); err != nil {
		t.Fatal(err)
	}
	variants := []optimizer.Options{
		{DisableNestLoop: true, DisableMergeJoin: true}, // hash
		{DisableNestLoop: true, DisableHashJoin: true},  // merge
		{DisableHashJoin: true, DisableMergeJoin: true}, // nest loop
	}
	var results []*executor.Result
	for _, opts := range variants {
		plan, err := f.env.WithOptions(opts).Optimize(sel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.exec.Run(plan)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		results = append(results, res)
	}
	sameRows(t, results[0], results[1], "hash vs merge")
	sameRows(t, results[0], results[2], "hash vs nestloop")
	if len(results[0].Rows) == 0 {
		t.Fatal("join returned nothing; test is vacuous")
	}
}

func TestParameterizedNestLoopAgreesWithHash(t *testing.T) {
	f := newFixture(t)
	if _, _, err := f.store.CreateIndex("ix_n_objid", "neighbors", []string{"objid"}); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT p.objid, n.distance FROM photoobj p JOIN neighbors n ON p.objid = n.objid WHERE p.psfmag_r < 14 AND n.distance < 0.1"
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, f.env.Schema); err != nil {
		t.Fatal(err)
	}
	envIdx := f.env.WithConfig(f.store.MaterializedConfiguration())

	nlPlan, err := envIdx.WithOptions(optimizer.Options{DisableHashJoin: true, DisableMergeJoin: true}).Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	param := false
	nlPlan.Root.Walk(func(n *optimizer.Node) {
		if n.ParamOuterColumn != "" {
			param = true
		}
	})
	if !param {
		t.Fatalf("expected parameterized plan:\n%s", nlPlan.Explain())
	}
	nlRes, err := f.exec.Run(nlPlan)
	if err != nil {
		t.Fatal(err)
	}

	hashPlan, err := envIdx.WithOptions(optimizer.Options{DisableNestLoop: true, DisableMergeJoin: true, DisableIndexScan: true}).Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	hashRes, err := f.exec.Run(hashPlan)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, nlRes, hashRes, "param NL vs hash")
	if len(nlRes.Rows) == 0 {
		t.Fatal("vacuous join")
	}
}

func TestAggregates(t *testing.T) {
	// Hand-built table with known aggregates.
	schema := catalog.NewSchema()
	schema.MustAddTable(catalog.MustTable("t", []catalog.Column{
		{Name: "g", Type: catalog.KindInt},
		{Name: "v", Type: catalog.KindFloat},
	}, "g"))
	store := storage.NewStore(schema)
	rows := []catalog.Row{
		{catalog.Int(1), catalog.Float(10)},
		{catalog.Int(1), catalog.Float(20)},
		{catalog.Int(2), catalog.Float(5)},
		{catalog.Int(2), catalog.Null()},
	}
	if err := store.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := store.Analyze(); err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(schema, store.Stats, nil)
	exec := executor.New(store)

	sel, err := sqlparse.ParseSelect(
		"SELECT g, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t GROUP BY g ORDER BY g")
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, schema); err != nil {
		t.Fatal(err)
	}
	plan, err := env.Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Rows))
	}
	g1 := res.Rows[0]
	if g1[0].I != 1 || g1[1].I != 2 || g1[2].I != 2 || g1[3].F != 30 || g1[4].F != 15 ||
		g1[5].F != 10 || g1[6].F != 20 {
		t.Fatalf("group 1 wrong: %s", g1)
	}
	g2 := res.Rows[1]
	// COUNT(*) counts the NULL row; COUNT(v)/SUM skip it.
	if g2[0].I != 2 || g2[1].I != 2 || g2[2].I != 1 || g2[3].F != 5 {
		t.Fatalf("group 2 wrong: %s", g2)
	}
}

func TestCountStarOnEmptyResult(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT COUNT(*) FROM photoobj WHERE objid = -1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("COUNT(*) over empty = %v", res.Rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT objid, psfmag_r FROM photoobj WHERE type = 6 ORDER BY psfmag_r DESC LIMIT 5")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1].F < res.Rows[i][1].F {
			t.Fatalf("descending order violated at %d", i)
		}
	}
}

func TestDistinct(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT DISTINCT camcol FROM photoobj")
	seen := map[int64]bool{}
	for _, r := range res.Rows {
		if seen[r[0].I] {
			t.Fatalf("duplicate camcol %d", r[0].I)
		}
		seen[r[0].I] = true
	}
	if len(seen) != 6 {
		t.Fatalf("camcols = %d, want 6", len(seen))
	}
}

func TestHavingFilter(t *testing.T) {
	f := newFixture(t)
	all := f.run(t, "SELECT camcol, COUNT(*) FROM photoobj GROUP BY camcol")
	some := f.run(t, "SELECT camcol, COUNT(*) FROM photoobj GROUP BY camcol HAVING COUNT(*) > 300")
	if len(some.Rows) >= len(all.Rows) {
		t.Fatalf("having did not filter: %d vs %d groups", len(some.Rows), len(all.Rows))
	}
	for _, r := range some.Rows {
		if r[1].I <= 300 {
			t.Fatalf("having leaked group %s", r)
		}
	}
}

// TestAggregatesUnderEveryPredicateKind: an aggregate call is computed and
// substituted wherever it sits — under BETWEEN, IN and IS NULL as under a
// comparison — in HAVING and in the projection list.
func TestAggregatesUnderEveryPredicateKind(t *testing.T) {
	f := newFixture(t)
	const groups = "SELECT camcol, COUNT(*) FROM photoobj GROUP BY camcol"
	all := f.run(t, groups)
	n0, n1 := all.Rows[0][1].I, all.Rows[1][1].I
	for _, c := range []struct{ having, same string }{
		{"COUNT(*) BETWEEN 1 AND 300", "COUNT(*) >= 1 AND COUNT(*) <= 300"},
		{fmt.Sprintf("COUNT(*) IN (%d, %d)", n0, n1), fmt.Sprintf("COUNT(*) = %d OR COUNT(*) = %d", n0, n1)},
		{"MAX(ra) IS NOT NULL", "COUNT(*) > 0"},
		{"MAX(ra) IS NULL", "COUNT(*) < 0"},
		{"NOT (MIN(ra) BETWEEN 0 AND 1) AND COUNT(*) + 1 IN (1, 2, SUM(camcol))", "COUNT(*) < 0"},
	} {
		got := f.run(t, groups+" HAVING "+c.having)
		want := f.run(t, groups+" HAVING "+c.same)
		sameRows(t, got, want, "HAVING "+c.having)
	}
	if some := f.run(t, groups+" HAVING COUNT(*) BETWEEN 1 AND 300"); len(some.Rows) == 0 || len(some.Rows) >= len(all.Rows) {
		t.Fatalf("BETWEEN 1 AND 300 kept %d of %d groups; the pair above compared nothing", len(some.Rows), len(all.Rows))
	}
	sameRows(t,
		f.run(t, "SELECT camcol, COUNT(*) BETWEEN 1 AND 300, MAX(ra) IS NULL FROM photoobj GROUP BY camcol"),
		f.run(t, "SELECT camcol, COUNT(*) >= 1 AND COUNT(*) <= 300, COUNT(*) < 0 FROM photoobj GROUP BY camcol"),
		"aggregates under BETWEEN and IS NULL in the projection list")
}

func TestProjectionExpressions(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, "SELECT objid, psfmag_g - psfmag_r AS color FROM photoobj WHERE objid = 1000005")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].Kind != catalog.KindFloat {
		t.Fatalf("color type = %v", res.Rows[0][1].Kind)
	}
}

func TestHypotheticalIndexCannotExecute(t *testing.T) {
	f := newFixture(t)
	hypo := &catalog.Index{
		Name: "h", Table: "photoobj", Columns: []string{"objid"},
		Hypothetical: true, EstimatedPages: 10, EstimatedHeight: 2,
	}
	cfg := catalog.NewConfiguration().WithIndex(hypo)
	sel, err := sqlparse.ParseSelect("SELECT objid FROM photoobj WHERE objid = 1000005")
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, f.env.Schema); err != nil {
		t.Fatal(err)
	}
	plan, err := f.env.WithConfig(cfg).Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	usesHypo := false
	plan.Root.Walk(func(n *optimizer.Node) {
		if n.Index != nil && n.Index.Hypothetical {
			usesHypo = true
		}
	})
	if !usesHypo {
		t.Skip("plan avoided the hypothetical index; nothing to check")
	}
	if _, err := f.exec.Run(plan); err == nil {
		t.Fatal("executing a hypothetical index must fail")
	}
}

func TestIndexScanIOFarBelowSeqScan(t *testing.T) {
	f := newFixture(t)
	if _, _, err := f.store.CreateIndex("ix_objid", "photoobj", []string{"objid"}); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT objid, ra FROM photoobj WHERE objid = 1000005"
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, f.env.Schema); err != nil {
		t.Fatal(err)
	}
	envIdx := f.env.WithConfig(f.store.MaterializedConfiguration())
	idxPlan, err := envIdx.Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	idxRes, err := f.exec.Run(idxPlan)
	if err != nil {
		t.Fatal(err)
	}
	seqPlan, err := envIdx.WithOptions(optimizer.Options{DisableIndexScan: true}).Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := f.exec.Run(seqPlan)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, idxRes, seqRes, sql)
	if idxRes.IO.Total()*10 > seqRes.IO.Total() {
		t.Fatalf("index scan I/O (%d) should be far below seq scan (%d)",
			idxRes.IO.Total(), seqRes.IO.Total())
	}
}

func TestEstimatedVsActualIOForScans(t *testing.T) {
	// The optimizer's absolute costs are unit-less, but its page estimates
	// for plain scans must track measured pages within a small factor.
	f := newFixture(t)
	sql := "SELECT objid FROM photoobj WHERE psfmag_r < 50" // everything
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, f.env.Schema); err != nil {
		t.Fatal(err)
	}
	plan, err := f.env.Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.exec.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	heapPages := f.store.Heap("photoobj").Pages()
	if res.IO.SeqPages != heapPages {
		t.Fatalf("full scan read %d pages, heap has %d", res.IO.SeqPages, heapPages)
	}
	// Estimated cost of a full scan ~ heapPages * seq_page_cost + CPU; the
	// page component must match exactly by construction.
	stats := f.env.Stats.Table("photoobj")
	if stats.Pages != heapPages {
		t.Fatalf("stats pages %d != heap pages %d", stats.Pages, heapPages)
	}
}
