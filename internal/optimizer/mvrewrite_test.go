package optimizer_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
)

// aggView builds a hypothetical aggregate MV for tests, with a group
// cardinality small enough that the rewrite should win.
func aggView(table string, keys, aggs []string, groups int64) *catalog.Index {
	return &catalog.Index{
		Name: "mv_" + table, Table: table, Columns: keys,
		Kind: catalog.KindAggView, Aggs: aggs,
		Hypothetical: true, EstimatedRows: groups, EstimatedPages: 1,
	}
}

func bestMVCost(t *testing.T, env *optimizer.Env, sql string) float64 {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, env.Schema); err != nil {
		t.Fatal(err)
	}
	return env.BestMVRewriteCost(sel, env.Config.Indexes)
}

func TestMVRewriteApplicability(t *testing.T) {
	mv := aggView("photoobj", []string{"run", "camcol"},
		[]string{"count(*)", "sum(psfmag_r)", "avg(psfmag_r)"}, 30)
	env := testEnv(t, catalog.NewConfiguration().WithIndex(mv))

	cases := []struct {
		name    string
		sql     string
		applies bool
	}{
		{"exact match", "SELECT run, camcol, COUNT(*) FROM photoobj GROUP BY run, camcol", true},
		{"rollup to key subset", "SELECT run, COUNT(*) FROM photoobj GROUP BY run", true},
		{"rollup of sum", "SELECT run, SUM(psfmag_r) FROM photoobj GROUP BY run", true},
		{"avg at exact keys", "SELECT run, camcol, AVG(psfmag_r) FROM photoobj GROUP BY run, camcol", true},
		{"avg cannot roll up", "SELECT run, AVG(psfmag_r) FROM photoobj GROUP BY run", false},
		{"filter on key column", "SELECT run, COUNT(*) FROM photoobj WHERE camcol = 3 GROUP BY run", true},
		{"filter on non-key column", "SELECT run, COUNT(*) FROM photoobj WHERE type = 6 GROUP BY run", false},
		{"unstored aggregate", "SELECT run, MAX(psfmag_r) FROM photoobj GROUP BY run", false},
		{"group key outside view", "SELECT fieldid, COUNT(*) FROM photoobj GROUP BY fieldid", false},
		{"having over stored agg", "SELECT run, COUNT(*) FROM photoobj GROUP BY run HAVING SUM(psfmag_r) > 10", true},
		{"having over unstored agg", "SELECT run, COUNT(*) FROM photoobj GROUP BY run HAVING MIN(psfmag_r) > 10", false},
		{"no aggregation", "SELECT run, camcol FROM photoobj WHERE run = 1", false},
		{"projection outside view", "SELECT run, ra, COUNT(*) FROM photoobj GROUP BY run, ra", false},
	}
	for _, c := range cases {
		cost := bestMVCost(t, env, c.sql)
		if c.applies && cost < 0 {
			t.Errorf("%s: rewrite should apply: %s", c.name, c.sql)
		}
		if !c.applies && cost >= 0 {
			t.Errorf("%s: rewrite must not apply (cost %.2f): %s", c.name, cost, c.sql)
		}
	}

	// Multi-table aggregates never match a single-table view.
	join := "SELECT p.run, COUNT(*) FROM photoobj p, specobj s WHERE s.bestobjid = p.objid GROUP BY p.run"
	if cost := bestMVCost(t, env, join); cost >= 0 {
		t.Errorf("join rewrite must not apply (cost %.2f)", cost)
	}
}

// TestMVRewriteWinsAndPlans verifies the rewrite beats the base-table plan
// when the view is small, and that Optimize itself picks the MVScan plan.
func TestMVRewriteWinsAndPlans(t *testing.T) {
	mv := aggView("photoobj", []string{"run", "camcol"}, []string{"count(*)"}, 30)
	cfg := catalog.NewConfiguration().WithIndex(mv)
	envBare := testEnv(t, nil)
	env := envBare.WithConfig(cfg)

	sql := "SELECT run, camcol, COUNT(*) FROM photoobj GROUP BY run, camcol"
	base := mustPlan(t, envBare, sql)
	rewritten := mustPlan(t, env, sql)
	if rewritten.Root.TotalCost >= base.Root.TotalCost {
		t.Fatalf("MV rewrite did not win: %.2f vs base %.2f",
			rewritten.Root.TotalCost, base.Root.TotalCost)
	}
	sawMV := false
	rewritten.Root.Walk(func(n *optimizer.Node) {
		if n.Kind == optimizer.NodeMVScan {
			sawMV = true
		}
		if n.Kind == optimizer.NodeSeqScan {
			t.Error("rewritten plan still scans the base table")
		}
	})
	if !sawMV {
		t.Fatalf("no MVScan node in plan:\n%s", rewritten.Explain())
	}

	// Rollup: grouping by a strict key subset stacks a HashAgg on the scan.
	rollup := mustPlan(t, env, "SELECT run, COUNT(*) FROM photoobj GROUP BY run")
	sawMV, sawAgg := false, false
	rollup.Root.Walk(func(n *optimizer.Node) {
		if n.Kind == optimizer.NodeMVScan {
			sawMV = true
		}
		if n.Kind == optimizer.NodeHashAgg {
			sawAgg = true
		}
	})
	if !sawMV || !sawAgg {
		t.Fatalf("rollup plan missing MVScan(%v)/HashAgg(%v):\n%s", sawMV, sawAgg, rollup.Explain())
	}
}

// TestNoAggViewNoRewrite pins the bit-identical guarantee: with no aggregate
// view configured the rewrite hook reports "not applicable" even for a
// perfectly matching aggregate query.
func TestNoAggViewNoRewrite(t *testing.T) {
	cfg := catalog.NewConfiguration()
	envBare := testEnv(t, nil)
	cfg = cfg.WithIndex(hypoIndex(envBare, "photoobj", "run"))
	env := envBare.WithConfig(cfg)
	if cost := bestMVCost(t, env, "SELECT run, COUNT(*) FROM photoobj GROUP BY run"); cost >= 0 {
		t.Fatalf("rewrite applied without any aggregate view (cost %.2f)", cost)
	}
}
