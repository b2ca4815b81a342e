package optimizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

func emptyStats() *stats.Catalog { return stats.NewCatalog() }

// randPredicate builds a random single-table predicate over photoobj's
// numeric columns.
func randPredicate(rng *rand.Rand) string {
	cols := []string{"ra", "dec", "psfmag_r", "type", "camcol", "run"}
	col := cols[rng.Intn(len(cols))]
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("%s = %d", col, rng.Intn(400))
	case 1:
		return fmt.Sprintf("%s < %.2f", col, rng.Float64()*400-50)
	case 2:
		lo := rng.Float64()*300 - 50
		return fmt.Sprintf("%s BETWEEN %.2f AND %.2f", col, lo, lo+rng.Float64()*100)
	case 3:
		return fmt.Sprintf("%s IN (%d, %d, %d)", col, rng.Intn(10), rng.Intn(100), rng.Intn(400))
	default:
		return fmt.Sprintf("%s IS NOT NULL", col)
	}
}

// TestSelectivityAlwaysInUnitInterval is the core estimator invariant.
func TestSelectivityAlwaysInUnitInterval(t *testing.T) {
	env := testEnv(t, nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		sql := "SELECT objid FROM photoobj WHERE " + randPredicate(rng)
		for i := 1; i < n; i++ {
			conn := " AND "
			if rng.Intn(3) == 0 {
				conn = " OR "
			}
			sql += conn + randPredicate(rng)
		}
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			return false
		}
		if err := sqlparse.Resolve(sel, env.Schema); err != nil {
			return false
		}
		s := env.Selectivity(sel.Where)
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCostsFiniteAndPositive fuzzes plans over random predicates and
// random index subsets.
func TestPlanCostsFiniteAndPositive(t *testing.T) {
	envBase := testEnv(t, nil)
	specs := [][]string{{"objid"}, {"ra"}, {"type", "psfmag_r"}, {"camcol", "run"}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := catalog.NewConfiguration()
		for _, spec := range specs {
			if rng.Intn(2) == 0 {
				cfg = cfg.WithIndex(hypoIndex(envBase, "photoobj", spec...))
			}
		}
		env := envBase.WithConfig(cfg)
		sql := "SELECT objid, ra FROM photoobj WHERE " + randPredicate(rng)
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			return false
		}
		if err := sqlparse.Resolve(sel, env.Schema); err != nil {
			return false
		}
		plan, err := env.Optimize(sel)
		if err != nil {
			return false
		}
		c := plan.TotalCost()
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return false
		}
		// Row estimates must also be sane everywhere in the tree.
		ok := true
		plan.Root.Walk(func(n *optimizer.Node) {
			if n.EstRows < 0 || math.IsNaN(n.EstRows) || n.TotalCost < n.StartupCost-1e-9 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestMoreIndexesNeverRaiseOptimizerCost mirrors the INUM monotonicity
// property at the full-optimizer level.
func TestMoreIndexesNeverRaiseOptimizerCost(t *testing.T) {
	envBase := testEnv(t, nil)
	queries := []string{
		"SELECT objid FROM photoobj WHERE objid BETWEEN 1000100 AND 1000200",
		"SELECT psfmag_r FROM photoobj WHERE type = 6 AND psfmag_r < 15",
		"SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z > 1",
	}
	specs := [][]string{{"objid"}, {"type", "psfmag_r"}, {"psfmag_r"}}
	for _, sql := range queries {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(sel, envBase.Schema); err != nil {
			t.Fatal(err)
		}
		cfg := catalog.NewConfiguration()
		prev, err := envBase.WithConfig(cfg).Cost(sel)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			cfg = cfg.WithIndex(hypoIndex(envBase, "photoobj", spec...))
			c, err := envBase.WithConfig(cfg).Cost(sel)
			if err != nil {
				t.Fatal(err)
			}
			if c > prev*1.0001 {
				t.Fatalf("%s: cost rose %f -> %f after adding %v", sql, prev, c, spec)
			}
			prev = c
		}
	}
}

// TestPlansWithoutStatistics: the optimizer must still plan (with default
// estimates) when a table was never analyzed — failure injection for the
// portability path.
func TestPlansWithoutStatistics(t *testing.T) {
	schema := catalog.NewSchema()
	schema.MustAddTable(catalog.MustTable("t", []catalog.Column{
		{Name: "a", Type: catalog.KindInt},
		{Name: "b", Type: catalog.KindFloat},
	}, "a"))
	// Empty stats catalog: no entry for t at all.
	env := optimizer.NewEnv(schema, emptyStats(), nil)
	sel, err := sqlparse.ParseSelect("SELECT a FROM t WHERE b > 1.5")
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
	if plan.TotalCost() <= 0 {
		t.Fatal("degenerate cost without statistics")
	}
}

// TestSelectivityOfUnboundParameterIsADefault: a $n is no constant the
// estimator can look up; wherever one stands, the answer is a default
// fraction, never a panic.
func TestSelectivityOfUnboundParameterIsADefault(t *testing.T) {
	env := testEnv(t, nil)
	for _, pred := range []string{
		"type = $1", "$1 < ra", "ra BETWEEN $1 AND $2", "type IN (3, $1)", "ra - $1 > 3", "NOT (type = $1) OR $2 IS NULL", "$1 = $2",
	} {
		sel, err := sqlparse.ParseSelect("SELECT objid FROM photoobj WHERE " + pred + " LIMIT $9")
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(sel, env.Schema); err != nil {
			t.Fatal(err)
		}
		if s := env.Selectivity(sel.Where); !(s > 0 && s <= 1) {
			t.Errorf("Selectivity(%s) = %v, want a fraction", pred, s)
		}
		if _, err := env.Optimize(sel); err != nil {
			t.Errorf("Optimize(%s): %v", sel, err)
		}
	}
}
