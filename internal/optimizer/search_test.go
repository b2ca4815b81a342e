package optimizer_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// familySQL widens the generated statements with the shapes the search
// treats specially: 3- and 4-way joins (one of them needing a cross join),
// two edges between one pair of tables, DESC orders a backward scan serves,
// IN-lists, residual cross-table and constant predicates, HAVING, DISTINCT,
// LIMIT, expression sort keys and queries an aggregate view answers.
var familySQL = []string{
	"SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE p.ra BETWEEN 10 AND 40 ORDER BY p.ra DESC",
	"SELECT objid, ra FROM photoobj WHERE dec BETWEEN -5 AND 5 ORDER BY ra DESC LIMIT 20",
	"SELECT objid, ra, dec FROM photoobj WHERE camcol IN (1, 3, 5) AND run = 752 ORDER BY camcol",
	"SELECT objid FROM photoobj WHERE type IN (3, 6) AND psfmag_r BETWEEN 17 AND 18",
	"SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE p.psfmag_r < s.z + 18",
	"SELECT p.objid, n.distance FROM photoobj p, neighbors n WHERE p.objid = n.objid AND p.ra > n.distance AND 1 = 1",
	"SELECT p.objid, s.z, f.quality FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid JOIN field f ON p.fieldid = f.fieldid WHERE s.class = 1 AND f.quality >= 2 ORDER BY p.objid",
	"SELECT p.objid, n.neighborobjid, s.z FROM photoobj p JOIN neighbors n ON p.objid = n.objid JOIN specobj s ON s.bestobjid = n.neighborobjid WHERE n.distance < 0.02",
	"SELECT f.fieldid, s.z FROM field f, specobj s, photoobj p WHERE p.fieldid = f.fieldid AND f.quality = 3 LIMIT 5",
	"SELECT p.objid FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid JOIN field f ON p.fieldid = f.fieldid JOIN neighbors n ON n.objid = p.objid WHERE f.quality = 1 AND n.distance < 0.01",
	"SELECT p.objid FROM photoobj p JOIN field f ON p.fieldid = f.fieldid AND p.run = f.run WHERE f.camcol = 2",
	"SELECT run, COUNT(*) FROM photoobj WHERE psfmag_r < 19 GROUP BY run HAVING COUNT(*) > 3 ORDER BY run",
	"SELECT f.fieldid, COUNT(*) FROM photoobj p JOIN field f ON p.fieldid = f.fieldid GROUP BY f.fieldid HAVING SUM(p.psfmag_r) > 100",
	"SELECT DISTINCT type, camcol FROM photoobj WHERE ra < 30",
	"SELECT DISTINCT s.class FROM specobj s JOIN photoobj p ON s.bestobjid = p.objid WHERE p.type = 6",
	"SELECT run, camcol, COUNT(*) FROM photoobj GROUP BY run, camcol",
	"SELECT run, SUM(psfmag_r) FROM photoobj WHERE camcol = 3 GROUP BY run ORDER BY run LIMIT 10",
	"SELECT run, COUNT(*) FROM photoobj GROUP BY run HAVING SUM(psfmag_r) > 10",
	"SELECT objid, ra + dec FROM photoobj WHERE type = 3 ORDER BY ra + dec LIMIT 7",
	"SELECT p.objid, s.specobjid FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid ORDER BY p.objid",
	"SELECT p.objid, n.distance FROM photoobj p JOIN neighbors n ON p.objid = n.objid WHERE p.psfmag_r < 13.2",
	"SELECT objid FROM photoobj WHERE (type = 3 OR type = 6) AND NOT (ra > 100) AND parentid IS NOT NULL",
	"SELECT objid, run, camcol FROM photoobj WHERE run BETWEEN 700 AND 800 ORDER BY run DESC, camcol DESC LIMIT 50",
	"SELECT f.fieldid, f.run FROM field f JOIN photoobj p ON f.fieldid = p.fieldid ORDER BY f.fieldid DESC LIMIT 3",
}

// planFamily calls fn on every member of the differential family: the
// statements of the five workload profiles (three seeds each) and familySQL,
// each under the empty design, every structure at once and 20 drawn designs
// over indexes on the columns the statements reference and three aggregate
// views, each with every join method on and with each turned off in turn.
// The order is fixed, so a digest over the calls is too.
func planFamily(t *testing.T, fn func(label string, env *optimizer.Env, sel *sqlparse.SelectStmt)) {
	t.Helper()
	base := testEnv(t, nil)
	var stmts []*sqlparse.SelectStmt
	for _, name := range workload.ProfileNames() {
		profile, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			w, err := profile.Generate(base.Schema, seed, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range w.Queries {
				stmts = append(stmts, q.Stmt)
			}
		}
	}
	for _, sql := range familySQL {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(sel, base.Schema); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		stmts = append(stmts, sel)
	}

	space := familySpace(base, stmts)
	rng := rand.New(rand.NewSource(1))
	all := catalog.NewConfiguration()
	for _, ix := range space {
		all = all.WithIndex(ix)
	}
	designs := []*catalog.Configuration{catalog.NewConfiguration(), all}
	for k := 0; k < 20; k++ {
		cfg := catalog.NewConfiguration()
		for _, ix := range space {
			if rng.Intn(8) == 0 {
				cfg = cfg.WithIndex(ix)
			}
		}
		designs = append(designs, cfg)
	}
	options := []optimizer.Options{{}, {DisableNestLoop: true}, {DisableHashJoin: true}, {DisableMergeJoin: true}}
	for di, cfg := range designs {
		for oi, opts := range options {
			env := base.WithConfig(cfg).WithOptions(opts)
			for si, sel := range stmts {
				fn(fmt.Sprintf("design %d, options %d, statement %d (%s)", di, oi, si, sel), env, sel)
			}
		}
	}
}

// familySpace lists, in a fixed order, a one-column index on every column
// the statements reference, a two-column index on every pair of columns one
// statement references on one table, and three aggregate views.
func familySpace(env *optimizer.Env, stmts []*sqlparse.SelectStmt) []*catalog.Index {
	seen := map[string]bool{}
	var space []*catalog.Index
	add := func(table string, cols ...string) {
		key := table + ":" + strings.Join(cols, ",")
		if !seen[key] {
			seen[key] = true
			space = append(space, hypoIndex(env, table, cols...))
		}
	}
	for _, sel := range stmts {
		for _, table := range slices.Sorted(slices.Values(sel.Analysis().Tables)) {
			cols := sortedKeys(sel.Analysis().ColumnsOf(table))
			for _, a := range cols {
				add(table, a)
			}
			for _, a := range cols {
				for _, b := range cols {
					if a != b {
						add(table, a, b)
					}
				}
			}
		}
	}
	return append(space,
		aggView("photoobj", []string{"run", "camcol"}, []string{"count(*)", "sum(psfmag_r)", "avg(psfmag_r)"}, 30),
		aggView("photoobj", []string{"fieldid"}, []string{"count(*)"}, 400),
		aggView("photoobj", []string{"type", "fieldid"}, []string{"count(*)"}, 900),
	)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// The family's digests, computed before the search compared plans by value
// (when Cost was Optimize(...).TotalCost()): every cost and every plan of
// the family stays what it was.
const (
	familyCostsSHA256 = "1fa78f8147c5668706dd392a77d7bcebb57f32b1ea94f2738b1e685edd05a9dc"
	familyPlansSHA256 = "6ab4f62c820f993f1dc9e2d0e6ffb50ed5704efc5e5a902baa511a98d6e9ea58"
)

// TestCostIsOptimizeTotal holds the search's two readers together: Cost,
// which builds nothing, answers the total of the plan Optimize builds, bit
// for bit, over the whole family. Both read one search, so the test also
// pins the family's costs to their digest: a change to the search moves
// both readers at once.
func TestCostIsOptimizeTotal(t *testing.T) {
	h := sha256.New()
	n, joins := 0, 0
	planFamily(t, func(label string, env *optimizer.Env, sel *sqlparse.SelectStmt) {
		plan, perr := env.Optimize(sel)
		cost, cerr := env.Cost(sel)
		if (perr == nil) != (cerr == nil) {
			t.Fatalf("%s: Optimize says %v, Cost %v", label, perr, cerr)
		}
		if perr != nil {
			fmt.Fprintf(h, "%v\n", perr)
			return
		}
		if math.Float64bits(cost) != math.Float64bits(plan.TotalCost()) {
			t.Errorf("%s: Cost %v, Optimize %v", label, cost, plan.TotalCost())
		}
		_ = binary.Write(h, binary.LittleEndian, math.Float64bits(cost))
		n++
		if len(sel.From) > 1 {
			joins++
		}
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != familyCostsSHA256 {
		t.Errorf("the family's costs moved: digest %s, want %s", got, familyCostsSHA256)
	}
	t.Logf("%d costings, %d of them joins", n, joins)
}

// TestOptimizePlansUnchanged pins every plan of the family, node for node
// as EXPLAIN prints it, to its digest.
func TestOptimizePlansUnchanged(t *testing.T) {
	h := sha256.New()
	planFamily(t, func(label string, env *optimizer.Env, sel *sqlparse.SelectStmt) {
		plan, err := env.Optimize(sel)
		if err != nil {
			fmt.Fprintf(h, "%v\n", err)
			return
		}
		_, _ = io.WriteString(h, plan.Explain())
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != familyPlansSHA256 {
		t.Errorf("the family's plans moved: digest %s, want %s", got, familyPlansSHA256)
	}
}
