package optimizer_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func benchEnv(b testing.TB) *optimizer.Env {
	b.Helper()
	store, err := workload.Generate(workload.SmallSize(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := catalog.NewConfiguration()
	for _, spec := range [][]string{{"objid"}, {"ra"}, {"type", "psfmag_r"}} {
		pages := optimizer.EstimateIndexLeafPages(store.Schema.Table("photoobj"), spec, store.Stats.Table("photoobj").RowCount)
		cfg = cfg.WithIndex(&catalog.Index{
			Name: "b", Table: "photoobj", Columns: spec, Hypothetical: true,
			EstimatedPages: int64(pages), EstimatedHeight: optimizer.EstimateIndexHeight(pages),
		})
	}
	return optimizer.NewEnv(store.Schema, store.Stats, cfg)
}

func benchStmt(b testing.TB, env *optimizer.Env, sql string) *sqlparse.SelectStmt {
	b.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		b.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, env.Schema); err != nil {
		b.Fatal(err)
	}
	return sel
}

// The three statements the Optimize/Cost benchmark pairs plan: one table,
// a two-way and a three-way join.
const (
	benchSingleTable = "SELECT objid, ra FROM photoobj WHERE type = 6 AND psfmag_r BETWEEN 15 AND 17"
	benchTwoWayJoin  = "SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z > 0.5 AND p.psfmag_r < 20"
	benchThreeWay    = "SELECT p.objid, s.z, f.quality FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid JOIN field f ON p.fieldid = f.fieldid WHERE s.class = 1"
)

var benchCost float64

func benchOptimize(b *testing.B, sql string) {
	env := benchEnv(b)
	sel := benchStmt(b, env, sql)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := env.Optimize(sel)
		if err != nil {
			b.Fatal(err)
		}
		benchCost = plan.TotalCost()
	}
}

func benchCostOf(b *testing.B, sql string) {
	env := benchEnv(b)
	sel := benchStmt(b, env, sql)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := env.Cost(sel)
		if err != nil {
			b.Fatal(err)
		}
		benchCost = c
	}
}

func BenchmarkOptimizeSingleTable(b *testing.B)  { benchOptimize(b, benchSingleTable) }
func BenchmarkCostSingleTable(b *testing.B)      { benchCostOf(b, benchSingleTable) }
func BenchmarkOptimizeTwoWayJoin(b *testing.B)   { benchOptimize(b, benchTwoWayJoin) }
func BenchmarkCostTwoWayJoin(b *testing.B)       { benchCostOf(b, benchTwoWayJoin) }
func BenchmarkOptimizeThreeWayJoin(b *testing.B) { benchOptimize(b, benchThreeWay) }
func BenchmarkCostThreeWayJoin(b *testing.B)     { benchCostOf(b, benchThreeWay) }

func BenchmarkBestTableAccess(b *testing.B) {
	env := benchEnv(b)
	sel := benchStmt(b, env, "SELECT objid, ra FROM photoobj WHERE type = 6 AND psfmag_r BETWEEN 15 AND 17")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.BestTableAccess(sel, "photoobj", designOn(env.Config, "photoobj"), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectivityEstimation(b *testing.B) {
	env := benchEnv(b)
	sel := benchStmt(b, env, "SELECT objid FROM photoobj WHERE type = 6 AND psfmag_r BETWEEN 15 AND 17 AND camcol IN (1, 2, 3)")
	conjs := sqlparse.Conjuncts(sel.Where)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.SelectivityAll(conjs)
	}
}
