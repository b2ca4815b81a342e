package optimizer_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// testEnv builds a tiny SDSS store and an environment over the given
// configuration.
func testEnv(t *testing.T, cfg *catalog.Configuration) *optimizer.Env {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 11)
	if err != nil {
		t.Fatal(err)
	}
	return optimizer.NewEnv(store.Schema, store.Stats, cfg)
}

func mustPlan(t *testing.T, env *optimizer.Env, sql string) *optimizer.Plan {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, env.Schema); err != nil {
		t.Fatal(err)
	}
	plan, err := env.Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// hypoIndex builds a sized hypothetical index for tests.
func hypoIndex(env *optimizer.Env, table string, cols ...string) *catalog.Index {
	ts := env.Stats.Table(table)
	pages := optimizer.EstimateIndexLeafPages(env.Schema.Table(table), cols, ts.RowCount)
	return &catalog.Index{
		Name: "hypo_" + table + "_" + strings.Join(cols, "_"), Table: table, Columns: cols,
		Hypothetical: true, EstimatedPages: int64(pages),
		EstimatedHeight: optimizer.EstimateIndexHeight(pages),
	}
}

func TestSeqScanWithoutIndexes(t *testing.T) {
	env := testEnv(t, nil)
	plan := mustPlan(t, env, "SELECT objid FROM photoobj WHERE objid = 1000100")
	found := false
	plan.Root.Walk(func(n *optimizer.Node) {
		if n.Kind == optimizer.NodeSeqScan {
			found = true
		}
		if n.Kind == optimizer.NodeIndexScan || n.Kind == optimizer.NodeIndexOnlyScan {
			t.Errorf("index scan without any index configured")
		}
	})
	if !found {
		t.Fatalf("no seq scan in plan:\n%s", plan.Explain())
	}
}

func TestIndexChosenForSelectivePredicate(t *testing.T) {
	cfg := catalog.NewConfiguration()
	envNoIdx := testEnv(t, nil)
	cfg = cfg.WithIndex(hypoIndex(envNoIdx, "photoobj", "objid"))
	env := envNoIdx.WithConfig(cfg)

	plan := mustPlan(t, env, "SELECT objid, ra FROM photoobj WHERE objid = 1000100")
	usesIndex := false
	plan.Root.Walk(func(n *optimizer.Node) {
		if n.Kind == optimizer.NodeIndexScan || n.Kind == optimizer.NodeIndexOnlyScan {
			usesIndex = true
		}
	})
	if !usesIndex {
		t.Fatalf("selective equality should use the index:\n%s", plan.Explain())
	}

	// The index plan must be cheaper than the best plan without it.
	noIdxPlan := mustPlan(t, envNoIdx, "SELECT objid, ra FROM photoobj WHERE objid = 1000100")
	if plan.TotalCost() >= noIdxPlan.TotalCost() {
		t.Fatalf("index plan (%.2f) should beat seq scan (%.2f)",
			plan.TotalCost(), noIdxPlan.TotalCost())
	}
}

func TestIndexNotChosenForUnselectivePredicate(t *testing.T) {
	envBase := testEnv(t, nil)
	cfg := catalog.NewConfiguration().WithIndex(hypoIndex(envBase, "photoobj", "psfmag_r"))
	env := envBase.WithConfig(cfg)
	// Nearly all magnitudes are < 30: a full seq scan must win.
	plan := mustPlan(t, env, "SELECT objid, psfmag_r FROM photoobj WHERE psfmag_r < 30")
	plan.Root.Walk(func(n *optimizer.Node) {
		if n.Kind == optimizer.NodeIndexScan {
			t.Errorf("unselective predicate should not use an index scan:\n%s", plan.Explain())
		}
	})
}

func TestIndexOnlyScanWhenCovering(t *testing.T) {
	envBase := testEnv(t, nil)
	cfg := catalog.NewConfiguration().WithIndex(hypoIndex(envBase, "photoobj", "type", "psfmag_r"))
	env := envBase.WithConfig(cfg)
	plan := mustPlan(t, env, "SELECT psfmag_r FROM photoobj WHERE type = 6 AND psfmag_r < 14")
	indexOnly := false
	plan.Root.Walk(func(n *optimizer.Node) {
		if n.Kind == optimizer.NodeIndexOnlyScan {
			indexOnly = true
		}
	})
	if !indexOnly {
		t.Fatalf("covering index should enable index-only scan:\n%s", plan.Explain())
	}
}

func TestCompositeIndexPrefixMatching(t *testing.T) {
	envBase := testEnv(t, nil)
	cfg := catalog.NewConfiguration().WithIndex(hypoIndex(envBase, "photoobj", "type", "psfmag_r"))
	env := envBase.WithConfig(cfg)
	plan := mustPlan(t, env,
		"SELECT objid FROM photoobj WHERE type = 6 AND psfmag_r BETWEEN 15 AND 16")
	var idx *optimizer.Node
	plan.Root.Walk(func(n *optimizer.Node) {
		if n.Kind == optimizer.NodeIndexScan || n.Kind == optimizer.NodeIndexOnlyScan {
			idx = n
		}
	})
	if idx == nil {
		t.Fatalf("composite index unused:\n%s", plan.Explain())
	}
	if len(idx.EqVals) != 1 || !idx.HasRange {
		t.Fatalf("expected eq prefix + range bound, got eq=%d range=%v", len(idx.EqVals), idx.HasRange)
	}
}

func TestJoinPlansAndMethods(t *testing.T) {
	env := testEnv(t, nil)
	sql := "SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z > 0.5"
	plan := mustPlan(t, env, sql)
	joins := 0
	plan.Root.Walk(func(n *optimizer.Node) {
		switch n.Kind {
		case optimizer.NodeHashJoin, optimizer.NodeMergeJoin, optimizer.NodeNestLoop:
			joins++
		}
	})
	if joins != 1 {
		t.Fatalf("expected exactly one join, got %d:\n%s", joins, plan.Explain())
	}

	// Disabling hash+merge forces a nested loop.
	envNL := env.WithOptions(optimizer.Options{DisableHashJoin: true, DisableMergeJoin: true})
	planNL := mustPlan(t, envNL, sql)
	sawNL := false
	planNL.Root.Walk(func(n *optimizer.Node) {
		if n.Kind == optimizer.NodeNestLoop {
			sawNL = true
		}
		if n.Kind == optimizer.NodeHashJoin || n.Kind == optimizer.NodeMergeJoin {
			t.Errorf("disabled join method appeared:\n%s", planNL.Explain())
		}
	})
	if !sawNL {
		t.Fatalf("expected nested loop:\n%s", planNL.Explain())
	}
}

func TestParameterizedIndexNestLoop(t *testing.T) {
	envBase := testEnv(t, nil)
	cfg := catalog.NewConfiguration().WithIndex(hypoIndex(envBase, "neighbors", "objid"))
	env := envBase.WithConfig(cfg)
	// Selective outer (few bright stars), index on the inner join column:
	// the planner should pick a parameterized nested loop.
	sql := "SELECT p.objid, n.distance FROM photoobj p JOIN neighbors n ON p.objid = n.objid WHERE p.psfmag_r < 13.2"
	plan := mustPlan(t, env, sql)
	param := false
	plan.Root.Walk(func(n *optimizer.Node) {
		if n.ParamOuterColumn != "" {
			param = true
		}
	})
	if !param {
		t.Fatalf("expected parameterized inner index scan:\n%s", plan.Explain())
	}
}

func TestThreeWayJoin(t *testing.T) {
	env := testEnv(t, nil)
	plan := mustPlan(t, env,
		"SELECT p.objid, s.z, f.quality FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid JOIN field f ON p.fieldid = f.fieldid WHERE s.class = 1")
	joins := 0
	plan.Root.Walk(func(n *optimizer.Node) {
		switch n.Kind {
		case optimizer.NodeHashJoin, optimizer.NodeMergeJoin, optimizer.NodeNestLoop:
			joins++
		}
	})
	if joins != 2 {
		t.Fatalf("three-way join needs 2 join nodes, got %d:\n%s", joins, plan.Explain())
	}
}

func TestOrderByUsesIndexOrder(t *testing.T) {
	envBase := testEnv(t, nil)
	cfg := catalog.NewConfiguration().WithIndex(hypoIndex(envBase, "photoobj", "ra"))
	env := envBase.WithConfig(cfg)
	// LIMIT makes an ordered index scan attractive vs sort-everything.
	plan := mustPlan(t, env, "SELECT objid, ra FROM photoobj ORDER BY ra LIMIT 10")
	hasSort := false
	usesIndex := false
	plan.Root.Walk(func(n *optimizer.Node) {
		if n.Kind == optimizer.NodeSort {
			hasSort = true
		}
		if n.Kind == optimizer.NodeIndexScan || n.Kind == optimizer.NodeIndexOnlyScan {
			usesIndex = true
		}
	})
	if hasSort || !usesIndex {
		t.Fatalf("ORDER BY+LIMIT should use the ra index without sorting:\n%s", plan.Explain())
	}
}

func TestAggregationPlan(t *testing.T) {
	env := testEnv(t, nil)
	plan := mustPlan(t, env,
		"SELECT type, COUNT(*), AVG(psfmag_r) FROM photoobj GROUP BY type")
	hasAgg := false
	plan.Root.Walk(func(n *optimizer.Node) {
		if n.Kind == optimizer.NodeHashAgg {
			hasAgg = true
			if len(n.Aggs) != 2 {
				t.Errorf("aggs = %d, want 2", len(n.Aggs))
			}
			if n.EstRows > 20 {
				t.Errorf("group estimate = %f, want small (type NDV)", n.EstRows)
			}
		}
	})
	if !hasAgg {
		t.Fatalf("no aggregation node:\n%s", plan.Explain())
	}
}

func TestVerticalPartitionReducesScanCost(t *testing.T) {
	envBase := testEnv(t, nil)
	sql := "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 20"
	basePlan := mustPlan(t, envBase, sql)

	// Narrow fragment containing exactly the touched columns.
	cfg := catalog.NewConfiguration()
	var rest []string
	for _, c := range envBase.Schema.Table("photoobj").Columns {
		switch strings.ToLower(c.Name) {
		case "objid", "ra", "dec":
		default:
			rest = append(rest, c.Name)
		}
	}
	cfg.SetVertical(&catalog.VerticalLayout{
		Table:     "photoobj",
		Fragments: [][]string{{"ra", "dec"}, rest},
	})
	env := envBase.WithConfig(cfg)
	partPlan := mustPlan(t, env, sql)
	if partPlan.TotalCost() >= basePlan.TotalCost() {
		t.Fatalf("vertical partition should cut scan cost: %.2f vs %.2f",
			partPlan.TotalCost(), basePlan.TotalCost())
	}
	// The narrow fragment holds ~3 of 48 columns: expect a large saving.
	if partPlan.TotalCost() > basePlan.TotalCost()*0.5 {
		t.Errorf("saving too small: %.2f vs %.2f", partPlan.TotalCost(), basePlan.TotalCost())
	}
}

// The optimizer matches fragment columns against a query's columns as they
// are, and SetVertical lower-cases them: a layout spelled in mixed case
// prices every access bit-equal to its lower-case spelling.
func TestMixedCaseLayoutPricesAsLowerCase(t *testing.T) {
	envBase := testEnv(t, nil)
	spelled := func(spell func(string) string) *optimizer.Env {
		var hot, warm, rest []string
		for _, c := range envBase.Schema.Table("photoobj").Columns {
			switch lc := strings.ToLower(c.Name); lc {
			case "objid":
			case "ra", "dec":
				hot = append(hot, spell(lc))
			case "type", "psfmag_r":
				warm = append(warm, spell(lc))
			default:
				rest = append(rest, spell(lc))
			}
		}
		cfg := catalog.NewConfiguration()
		cfg.SetVertical(&catalog.VerticalLayout{Table: "photoobj", Fragments: [][]string{hot, warm, rest}})
		return envBase.WithConfig(cfg)
	}
	lower := spelled(func(c string) string { return c })
	mixed := spelled(func(c string) string { return strings.ToUpper(c[:1]) + c[1:] })
	for _, sql := range []string{
		"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 20", // one fragment
		"SELECT ra, psfmag_r FROM photoobj WHERE type = 6",               // two: stitched
		"SELECT objid FROM photoobj WHERE objid < 100",                   // the key alone
	} {
		want := mustPlan(t, lower, sql).TotalCost()
		if got := mustPlan(t, mixed, sql).TotalCost(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: mixed-case layout costs %v, lower-case %v", sql, got, want)
		}
	}
}

func TestHorizontalPartitionPrunes(t *testing.T) {
	envBase := testEnv(t, nil)
	sql := "SELECT objid FROM photoobj WHERE ra BETWEEN 100 AND 110"
	basePlan := mustPlan(t, envBase, sql)

	cfg := catalog.NewConfiguration()
	var bounds []catalog.Datum
	for ra := 45.0; ra < 360; ra += 45 {
		bounds = append(bounds, catalog.Float(ra))
	}
	cfg.SetHorizontal(&catalog.HorizontalLayout{Table: "photoobj", Column: "ra", Bounds: bounds})
	env := envBase.WithConfig(cfg)
	prunedPlan := mustPlan(t, env, sql)
	if prunedPlan.TotalCost() >= basePlan.TotalCost() {
		t.Fatalf("horizontal pruning should cut cost: %.2f vs %.2f",
			prunedPlan.TotalCost(), basePlan.TotalCost())
	}
}

func TestZeroSizeWhatIfDistortsCost(t *testing.T) {
	envBase := testEnv(t, nil)
	ix := hypoIndex(envBase, "photoobj", "psfmag_r")
	cfg := catalog.NewConfiguration().WithIndex(ix)

	// A covering range scan is priced almost entirely by leaf I/O; with
	// size-zero sizing that I/O vanishes and the design looks (wrongly)
	// much cheaper than it is.
	sql := "SELECT psfmag_r FROM photoobj WHERE psfmag_r BETWEEN 18 AND 20"
	honest := envBase.WithConfig(cfg)
	zero := honest.WithOptions(optimizer.Options{ZeroSizeWhatIf: true})

	hPlan := mustPlan(t, honest, sql)
	zPlan := mustPlan(t, zero, sql)
	if zPlan.TotalCost() >= hPlan.TotalCost() {
		t.Fatalf("size-zero what-if should (wrongly) look cheaper: %.2f vs %.2f",
			zPlan.TotalCost(), hPlan.TotalCost())
	}
}

func TestExplainRendersPlan(t *testing.T) {
	envBase := testEnv(t, nil)
	cfg := catalog.NewConfiguration().WithIndex(hypoIndex(envBase, "photoobj", "objid"))
	env := envBase.WithConfig(cfg)
	plan := mustPlan(t, env, "SELECT objid FROM photoobj WHERE objid = 1000005 ORDER BY objid")
	out := plan.Explain()
	for _, want := range []string{"cost=", "rows="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	if plan.EstRows() != plan.Root.EstRows || plan.EstRows() < 0 {
		t.Errorf("plan EstRows %v, root's %v", plan.EstRows(), plan.Root.EstRows)
	}
}

func TestOptimizeErrors(t *testing.T) {
	env := testEnv(t, nil)
	for _, sql := range []string{
		"SELECT x FROM photoobj", // unknown column found at resolve; test optimize-only error below
	} {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(sel, env.Schema); err == nil {
			t.Errorf("resolve should fail for %q", sql)
		}
	}
	// Duplicate table (self join): Resolve refuses it, and the optimizer
	// refuses a tree that did not come through Resolve.
	sel, err := sqlparse.ParseSelect("SELECT a.objid FROM photoobj a, photoobj b WHERE a.objid = b.parentid")
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, env.Schema); err == nil || !strings.Contains(err.Error(), "self-join") {
		t.Errorf("Resolve of a self-join = %v", err)
	}
	if _, err := env.Optimize(sel); err == nil {
		t.Error("self-join should be rejected")
	}
}

func TestCostStability(t *testing.T) {
	env := testEnv(t, nil)
	sql := "SELECT objid FROM photoobj WHERE type = 6 AND psfmag_r < 18"
	p1 := mustPlan(t, env, sql)
	p2 := mustPlan(t, env, sql)
	if p1.TotalCost() != p2.TotalCost() {
		t.Fatalf("planning is not deterministic: %f vs %f", p1.TotalCost(), p2.TotalCost())
	}
}

func TestLimitReducesCost(t *testing.T) {
	env := testEnv(t, nil)
	full := mustPlan(t, env, "SELECT objid FROM photoobj WHERE psfmag_r < 25")
	limited := mustPlan(t, env, "SELECT objid FROM photoobj WHERE psfmag_r < 25 LIMIT 1")
	if limited.TotalCost() > full.TotalCost() {
		t.Fatalf("limit should not raise cost: %.2f vs %.2f", limited.TotalCost(), full.TotalCost())
	}
}
