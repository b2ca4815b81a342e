package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// workspaceSQL runs from one table to six, so a workspace taken from the
// pool alternately grows and shrinks: its memo, scans, edge and index
// buffers hold more than the next search uses. plate and tile are tables
// the test adds to the schema, without statistics.
var workspaceSQL = []string{
	"SELECT objid, ra FROM photoobj WHERE type = 6 AND psfmag_r BETWEEN 15 AND 17",
	"SELECT run, COUNT(*) FROM photoobj WHERE psfmag_r < 19 GROUP BY run ORDER BY run",
	"SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z > 0.5 ORDER BY p.objid",
	"SELECT p.objid, s.z, f.quality FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid JOIN field f ON p.fieldid = f.fieldid WHERE s.class = 1",
	"SELECT p.objid FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid JOIN field f ON p.fieldid = f.fieldid JOIN neighbors n ON n.objid = p.objid WHERE f.quality = 1 AND n.distance < 0.01",
	"SELECT p.objid, pl.mjd FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid JOIN field f ON p.fieldid = f.fieldid JOIN neighbors n ON n.objid = p.objid JOIN plate pl ON pl.plate = s.plate WHERE pl.mjd > 52000 ORDER BY pl.mjd",
	"SELECT p.objid, t.ra FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid JOIN field f ON p.fieldid = f.fieldid JOIN neighbors n ON n.objid = p.objid JOIN plate pl ON pl.plate = s.plate JOIN tile t ON t.tileid = pl.tileid WHERE t.dec < 10 AND s.z > 0.1",
	"SELECT f.fieldid, s.z FROM field f, specobj s, photoobj p WHERE p.fieldid = f.fieldid AND f.quality = 3 LIMIT 5",
}

// workspaceFixture is an environment over the tiny SDSS store plus two
// tables, the statements above, and three designs to plan them under.
func workspaceFixture(t *testing.T) (*Env, []*sqlparse.SelectStmt, []*catalog.Configuration) {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 11)
	if err != nil {
		t.Fatal(err)
	}
	store.Schema.MustAddTable(catalog.MustTable("plate", []catalog.Column{
		{Name: "plateid", Type: catalog.KindInt}, {Name: "plate", Type: catalog.KindInt},
		{Name: "tileid", Type: catalog.KindInt}, {Name: "mjd", Type: catalog.KindInt},
	}, "plateid"))
	store.Schema.MustAddTable(catalog.MustTable("tile", []catalog.Column{
		{Name: "tileid", Type: catalog.KindInt}, {Name: "ra", Type: catalog.KindFloat}, {Name: "dec", Type: catalog.KindFloat},
	}, "tileid"))
	env := NewEnv(store.Schema, store.Stats, nil)

	var stmts []*sqlparse.SelectStmt
	for _, sql := range workspaceSQL {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(sel, env.Schema); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		stmts = append(stmts, sel)
	}
	index := func(table string, cols ...string) *catalog.Index {
		return &catalog.Index{Name: fmt.Sprintf("ix_%s_%v", table, cols), Table: table, Columns: cols, Hypothetical: true}
	}
	some := catalog.NewConfiguration().
		WithIndex(index("photoobj", "type", "psfmag_r")).
		WithIndex(index("specobj", "bestobjid")).
		WithIndex(index("plate", "plate"))
	all := some.
		WithIndex(index("photoobj", "objid")).
		WithIndex(index("photoobj", "fieldid")).
		WithIndex(index("photoobj", "run")).
		WithIndex(index("field", "fieldid")).
		WithIndex(index("neighbors", "objid")).
		WithIndex(index("tile", "tileid")).
		WithIndex(index("specobj", "plate", "z")).
		WithIndex(&catalog.Index{Name: "mv", Table: "photoobj", Columns: []string{"run"}, Aggs: []string{"count(*)"}, Kind: catalog.KindAggView, Hypothetical: true})
	return env, stmts, []*catalog.Configuration{catalog.NewConfiguration(), some, all}
}

// freshCost and freshPlan run a search on a workspace of their own, never
// pooled: the twin every pooled search must equal.
func freshCost(e *Env, sel *sqlparse.SelectStmt) (float64, error) {
	var s search
	if err := s.run(e, e.Config, sel); err != nil {
		return 0, err
	}
	return s.total, nil
}

func freshPlan(e *Env, sel *sqlparse.SelectStmt) (*Plan, error) {
	var s search
	if err := s.run(e, e.Config, sel); err != nil {
		return nil, err
	}
	return &Plan{Root: s.build(), Tables: s.tables}, nil
}

func freshShape(e *Env, sel *sqlparse.SelectStmt) (PlanShape, error) {
	var s search
	if err := s.run(e, e.Config, sel); err != nil {
		return PlanShape{}, err
	}
	return s.shape(), nil
}

// sameShape compares two shapes bit for bit.
func sameShape(a, b PlanShape) bool {
	return math.Float64bits(a.Total) == math.Float64bits(b.Total) && math.Float64bits(a.Scans) == math.Float64bits(b.Scans) && slices.Equal(a.Orders, b.Orders)
}

// TestPooledSearchMatchesFreshSearch holds the pooled workspace to a fresh
// one: four goroutines interleave Cost, Optimize and ShapeUnder over one- to
// six-table statements under three designs, and every cost, every plan's
// total and EXPLAIN, and every shape must equal the fresh twin's, bit for
// bit. Each
// goroutine keeps the first plan it built and, after its 1,000 further
// searches, that plan must still render as it did: a plan owns its join
// edges, it does not read them from the workspace that built it.
func TestPooledSearchMatchesFreshSearch(t *testing.T) {
	env, stmts, designs := workspaceFixture(t)
	type twin struct {
		env     *Env
		sel     *sqlparse.SelectStmt
		cost    uint64
		explain string
		shape   PlanShape
	}
	var twins []twin
	for _, cfg := range designs {
		e := env.WithConfig(cfg)
		for _, sel := range stmts {
			cost, err := freshCost(e, sel)
			if err != nil {
				t.Fatalf("%s: %v", sel, err)
			}
			plan, err := freshPlan(e, sel)
			if err != nil {
				t.Fatalf("%s: %v", sel, err)
			}
			if math.Float64bits(cost) != math.Float64bits(plan.TotalCost()) {
				t.Fatalf("%s: fresh Cost %v, fresh plan %v", sel, cost, plan.TotalCost())
			}
			shape, err := freshShape(e, sel)
			if err != nil {
				t.Fatalf("%s: %v", sel, err)
			}
			twins = append(twins, twin{e, sel, math.Float64bits(cost), plan.Explain(), shape})
		}
	}

	const workers, searches = 4, 1000
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			first := twins[len(twins)-2-g%2] // a join over six or five tables
			kept, err := first.env.Optimize(first.sel)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < searches; i++ {
				tw := twins[rng.Intn(len(twins))]
				switch i % 3 {
				case 0:
					cost, err := tw.env.Cost(tw.sel)
					if err != nil || math.Float64bits(cost) != tw.cost {
						errs <- fmt.Errorf("worker %d, search %d, %s: pooled Cost %v (%v), fresh %v", g, i, tw.sel, cost, err, math.Float64frombits(tw.cost))
						return
					}
					continue
				case 1:
					shape, err := tw.env.ShapeUnder(tw.sel, tw.env.Config)
					if err != nil || !sameShape(shape, tw.shape) {
						errs <- fmt.Errorf("worker %d, search %d, %s: pooled shape %+v (%v), fresh %+v", g, i, tw.sel, shape, err, tw.shape)
						return
					}
					continue
				}
				plan, err := tw.env.Optimize(tw.sel)
				if err != nil || math.Float64bits(plan.TotalCost()) != tw.cost || plan.Explain() != tw.explain {
					errs <- fmt.Errorf("worker %d, search %d, %s: pooled plan differs from the fresh one (%v)", g, i, tw.sel, err)
					return
				}
			}
			if got := kept.Explain(); got != first.explain {
				errs <- fmt.Errorf("worker %d: a plan built before %d searches now renders\n%s\nwas\n%s", g, searches, got, first.explain)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReleasedSearchPinsNothing holds the workspace's second lifetime rule:
// once reset for the pool, no buffer, up to its capacity, holds a pointer,
// so an idle workspace pins no configuration's structures and no statement.
func TestReleasedSearchPinsNothing(t *testing.T) {
	env, stmts, designs := workspaceFixture(t)
	e := env.WithConfig(designs[2])
	s := new(search)
	for _, sel := range []*sqlparse.SelectStmt{stmts[6], stmts[2]} { // grow to six tables, then shrink
		if err := s.run(e, e.Config, sel); err != nil {
			t.Fatal(err)
		}
		s.build()
		s.reset()
	}
	if s.env != nil || s.sel != nil || s.tables != nil || s.joins != nil || s.residual != nil || s.best != nil || s.mv != nil || s.orderBy != nil {
		t.Fatal("a released workspace keeps the search's environment, statement or winner")
	}
	for m, paths := range s.memo[:cap(s.memo)] {
		for i, p := range paths[:cap(paths)] {
			if !unset(p) {
				t.Fatalf("memo set %d keeps path %d: %+v", m, i, p)
			}
		}
	}
	zero := func(name string, n int, isZero func(i int) bool) {
		for i := 0; i < n; i++ {
			if !isZero(i) {
				t.Fatalf("%s[%d] is kept", name, i)
			}
		}
	}
	zero("scans", cap(s.scans), func(i int) bool {
		return s.scans[:cap(s.scans)][i].e == nil && s.scans[:cap(s.scans)][i].indexes == nil && s.scans[:cap(s.scans)][i].needed == nil
	})
	zero("indexes", cap(s.indexes), func(i int) bool { return s.indexes[:cap(s.indexes)][i] == nil })
	zero("edges", cap(s.edges), func(i int) bool { return s.edges[:cap(s.edges)][i] == (sqlparse.JoinEdge{}) })
	zero("cands", cap(s.cands), func(i int) bool { return unset(s.cands[:cap(s.cands)][i]) })
	zero("wantedOrders", cap(s.wantedOrders), func(i int) bool { return s.wantedOrders[:cap(s.wantedOrders)][i] == nil })
	zero("joinKeys", cap(s.joinKeys), func(i int) bool { return s.joinKeys[:cap(s.joinKeys)][i] == (OrderKey{}) })
	if cap(s.memo) < 64 || cap(s.edges) == 0 || cap(s.scans) < 6 {
		t.Fatalf("the workspace did not keep its buffers: memo %d, edges %d, scans %d", cap(s.memo), cap(s.edges), cap(s.scans))
	}
}

// unset reports whether a path is the zero value.
func unset(p path) bool {
	return p.outer == nil && p.inner == nil && p.edges == nil && p.ord == (order{}) &&
		p.kind == 0 && p.rows == 0 && p.startup == 0 && p.total == 0 && p.table == 0 && p.probe == 0 && !p.sortOuter && !p.sortInner
}
