package inum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// planScans and planOrders are the walk over a built plan that INUM read
// its templates from before optimizer.ShapeUnder: the reference the shape
// is held to. planScans sums the total costs of the leaf scans in
// Node.Walk's order; planOrders reports, per table, the order its leaf scan
// delivers (nil when unordered). A parameterized inner scan's cost is
// charged per loop by its join, so both leave it out.
func planScans(root *optimizer.Node) float64 {
	var total float64
	root.Walk(func(n *optimizer.Node) {
		if isLeafScan(n) {
			total += n.TotalCost
		}
	})
	return total
}

func planOrders(root *optimizer.Node) map[string][]optimizer.OrderKey {
	out := map[string][]optimizer.OrderKey{}
	root.Walk(func(n *optimizer.Node) {
		if isLeafScan(n) {
			out[n.Table] = n.Order
		}
	})
	return out
}

func isLeafScan(n *optimizer.Node) bool {
	switch n.Kind {
	case optimizer.NodeSeqScan, optimizer.NodeIndexScan, optimizer.NodeIndexOnlyScan:
		return n.ParamOuterColumn == ""
	}
	return false
}

// reversedScans is planScans summed inner input before outer: what a shape
// that visited a join's inputs the other way round would report.
func reversedScans(n *optimizer.Node) float64 {
	var total float64
	var walk func(n *optimizer.Node)
	walk = func(n *optimizer.Node) {
		if isLeafScan(n) {
			total += n.TotalCost
		}
		for i := len(n.Children) - 1; i >= 0; i-- {
			walk(n.Children[i])
		}
	}
	walk(n)
	return total
}

// shapeCases counts the plan features the twin must meet at least once to
// have teeth against a shape that prices them wrong.
type shapeCases struct {
	pairs, paramInner, backward, sortedMerge, viewWinner, orderSensitive int
}

// checkShape holds ShapeUnder to Optimize plus the tree walk for one
// statement under one design, bit for bit, and counts the plan's features.
func checkShape(t *testing.T, env *optimizer.Env, sel *sqlparse.SelectStmt, cfg *catalog.Configuration, what string, n *shapeCases) {
	t.Helper()
	plan, perr := env.WithConfig(cfg).Optimize(sel)
	shape, serr := env.ShapeUnder(sel, cfg)
	if (perr == nil) != (serr == nil) {
		t.Fatalf("%s: Optimize says %v, ShapeUnder %v", what, perr, serr)
	}
	if perr != nil {
		return
	}
	n.pairs++
	if math.Float64bits(shape.Total) != math.Float64bits(plan.TotalCost()) {
		t.Fatalf("%s: ShapeUnder total %v, plan %v\n%s", what, shape.Total, plan.TotalCost(), plan.Explain())
	}
	if want := planScans(plan.Root); math.Float64bits(shape.Scans) != math.Float64bits(want) {
		t.Fatalf("%s: ShapeUnder scans %v, plan walk %v\n%s", what, shape.Scans, want, plan.Explain())
	}
	orders := planOrders(plan.Root)
	tables := sel.Analysis().Tables
	if len(shape.Orders) != len(tables) {
		t.Fatalf("%s: %d orders for %d tables", what, len(shape.Orders), len(tables))
	}
	for i, table := range tables {
		var want optimizer.OrderKey
		if o := orders[table]; len(o) > 0 {
			want = o[0]
		}
		if shape.Orders[i] != want {
			t.Fatalf("%s: %s ordered by %+v, plan walk %+v\n%s", what, table, shape.Orders[i], want, plan.Explain())
		}
	}

	if math.Float64bits(reversedScans(plan.Root)) != math.Float64bits(shape.Scans) {
		n.orderSensitive++
	}
	plan.Root.Walk(func(node *optimizer.Node) {
		switch {
		case node.ParamOuterColumn != "":
			n.paramInner++
		case isLeafScan(node) && node.Backward:
			n.backward++
		case node.Kind == optimizer.NodeMVScan:
			n.viewWinner++
		case node.Kind == optimizer.NodeMergeJoin:
			for _, c := range node.Children {
				if c.Kind == optimizer.NodeSort {
					n.sortedMerge++
					break
				}
			}
		}
	})
}

// TestShapeUnderIsThePlanWalk is the differential twin of the template
// source: optimizer.ShapeUnder, which reads a plan's total, leaf scans and
// leaf orders off the plan search's winner, equals Optimize followed by the
// tree walk above — totals and scan sums by Float64bits, leading order keys
// equal, direction included. The family is the five workload profiles on
// the tiny and the small dataset, two seeds each, under the empty design,
// the whole design space and random designs with layouts and views, plus
// hand-written cases; it must meet a parameterized nested-loop inner, a
// backward scan, a merge join over a sorted input, an aggregate-view winner
// and a plan whose scan sum moves when summed inner before outer.
func TestShapeUnderIsThePlanWalk(t *testing.T) {
	var n shapeCases
	sizes := []struct {
		name string
		rows workload.Size
	}{{"tiny", workload.TinySize()}, {"small", workload.SmallSize()}}
	for _, size := range sizes {
		for seed := int64(1); seed <= 2; seed++ {
			store, err := workload.Generate(size.rows, seed)
			if err != nil {
				t.Fatal(err)
			}
			env := optimizer.NewEnv(store.Schema, store.Stats, nil)
			for pi, name := range workload.ProfileNames() {
				profile, err := workload.ProfileByName(name)
				if err != nil {
					t.Fatal(err)
				}
				w, err := profile.Generate(store.Schema, seed*10+int64(pi), 12)
				if err != nil {
					t.Fatal(err)
				}
				space := designSpace(t, store, w)
				all := catalog.NewConfiguration()
				all.Indexes = space
				designs := []*catalog.Configuration{catalog.NewConfiguration(), all}
				rng := rand.New(rand.NewSource(seed*10 + int64(pi)))
				for k := 0; k < 12; k++ {
					designs = append(designs, randomDesign(rng, store, space))
				}
				for di, cfg := range designs {
					for _, q := range w.Queries {
						checkShape(t, env, q.Stmt, cfg, fmt.Sprintf("%s seed %d, %s design %d: %s", size.name, seed, name, di, q.SQL), &n)
					}
				}
			}
		}
	}

	// Hand-written statements on both datasets, each under its own
	// structures and under designs drawn from their design space: an
	// aggregate view that wins, a DESC order an index serves backward,
	// constant predicates a lone scan filters, and joins of three and four
	// tables — on the small dataset the second three-way join's index scans
	// cost amounts that summing inner before outer rounds differently.
	for _, size := range sizes {
		store, err := workload.Generate(size.rows, 11)
		if err != nil {
			t.Fatal(err)
		}
		env := optimizer.NewEnv(store.Schema, store.Stats, nil)
		index := func(table string, cols ...string) *catalog.Index {
			ts := env.Stats.Table(table)
			pages := optimizer.EstimateIndexLeafPages(env.Schema.Table(table), cols, ts.RowCount)
			return &catalog.Index{Name: fmt.Sprint(table, cols), Table: table, Columns: cols, Hypothetical: true,
				EstimatedPages: int64(pages), EstimatedHeight: optimizer.EstimateIndexHeight(pages)}
		}
		view := &catalog.Index{Name: "mv_photoobj", Table: "photoobj", Columns: []string{"run", "camcol"}, Kind: catalog.KindAggView,
			Aggs: []string{"count(*)"}, Hypothetical: true, EstimatedRows: 30, EstimatedPages: 1}
		cases := []struct {
			sql     string
			structs []*catalog.Index
		}{
			{"SELECT run, camcol, COUNT(*) FROM photoobj GROUP BY run, camcol", []*catalog.Index{view}},
			{"SELECT objid, ra FROM photoobj WHERE dec BETWEEN -5 AND 5 ORDER BY ra DESC LIMIT 20", []*catalog.Index{index("photoobj", "ra")}},
			{"SELECT ra FROM photoobj WHERE 1 = 1 AND ra < 10", nil},
			{"SELECT p.objid, n.distance FROM photoobj p, neighbors n WHERE p.objid = n.objid AND p.ra > n.distance AND 1 = 1", []*catalog.Index{index("neighbors", "objid")}},
			{"SELECT p.objid, s.z, f.quality FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid JOIN field f ON p.fieldid = f.fieldid WHERE p.ra BETWEEN 10 AND 40 AND s.z BETWEEN 0.1 AND 0.3 AND f.quality >= 2 ORDER BY p.objid",
				[]*catalog.Index{index("photoobj", "ra"), index("specobj", "z"), index("field", "quality")}},
			{"SELECT p.objid, n.neighborobjid, s.z FROM photoobj p JOIN neighbors n ON p.objid = n.objid JOIN specobj s ON s.bestobjid = p.objid WHERE p.ra BETWEEN 10 AND 13 AND s.z > 2 AND n.distance < 0.0005",
				[]*catalog.Index{index("photoobj", "ra"), index("specobj", "z"), index("neighbors", "distance")}},
			{"SELECT p.objid FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid JOIN field f ON p.fieldid = f.fieldid JOIN neighbors n ON n.objid = p.objid WHERE f.quality = 1 AND n.distance < 0.01 AND p.psfmag_r < 16", nil},
		}
		var written []workload.Template
		for i, c := range cases {
			written = append(written, workload.Template{Name: fmt.Sprint("case", i), Gen: func(*rand.Rand) string { return c.sql }})
		}
		w, err := workload.NewWorkloadFrom(store.Schema, 1, len(cases), written)
		if err != nil {
			t.Fatal(err)
		}
		space := designSpace(t, store, w)
		rng := rand.New(rand.NewSource(3))
		var designs []*catalog.Configuration
		for k := 0; k < 24; k++ {
			designs = append(designs, randomDesign(rng, store, space))
		}
		for i, c := range cases {
			own := catalog.NewConfiguration()
			own.Indexes = c.structs
			for di, cfg := range append([]*catalog.Configuration{own}, designs...) {
				checkShape(t, env, w.Queries[i].Stmt, cfg, fmt.Sprintf("%s design %d: %s", size.name, di, c.sql), &n)
			}
		}

		// The plan the walk was first checked on: a join whose leaf scans
		// cost something, and no more than the plan.
		sql := "SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z > 0.5"
		cfg := catalog.NewConfiguration().WithIndex(index("specobj", "bestobjid"))
		sel := parsed(t, store.Schema, sql)
		checkShape(t, env, sel, cfg, sql, &n)
		shape, err := env.ShapeUnder(sel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if shape.Scans <= 0 || shape.Scans > shape.Total {
			t.Errorf("%s %s: scan cost %v out of range (total %v)", size.name, sql, shape.Scans, shape.Total)
		}
	}

	t.Logf("%d (statement, design) pairs: %d parameterized inners, %d backward scans, %d merge joins over a sorted input, %d aggregate-view winners, %d scan sums the summation order moves",
		n.pairs, n.paramInner, n.backward, n.sortedMerge, n.viewWinner, n.orderSensitive)
	for what, count := range map[string]int{
		"parameterized nested-loop inner": n.paramInner, "backward scan": n.backward, "merge join over a sorted input": n.sortedMerge,
		"aggregate-view winner": n.viewWinner, "scan sum the summation order moves": n.orderSensitive,
	} {
		if count == 0 {
			t.Errorf("no %s in the family: the twin no longer checks how the shape reads one", what)
		}
	}
}

// TestTemplatesStayWithinTheBound prepares a statement with more
// interesting-order columns than a complete entry has seeds — nine join
// edges and an ORDER BY — and requires at most maxTemplates templates for at
// most maxTemplates full optimizations, so the costing loop's stack buffer
// always holds every template.
func TestTemplatesStayWithinTheBound(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, nil)
	stmt := parsed(t, store.Schema, "SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid"+
		" AND p.specobjid = s.specobjid AND p.ra = s.z AND p.dec = s.zerr AND p.type = s.class AND p.mode = s.subclass"+
		" AND p.run = s.plate AND p.rerun = s.mjd AND p.camcol = s.fiberid ORDER BY p.fieldid")
	cols := 0
	for l := range stmt.Leads {
		if l.Order {
			cols++
		}
	}
	if cols <= maxTemplates {
		t.Fatalf("the statement has %d interesting-order columns, not more than the bound %d", cols, maxTemplates)
	}
	var counters Counters
	cache := New(env, &counters)
	q, err := cache.Prepare("", stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.TemplateCount() > maxTemplates || q.PrepCost() > maxTemplates || counters.FullOptimizations.Load() > maxTemplates {
		t.Errorf("%d templates for %d full optimizations (%d counted), bound %d", q.TemplateCount(), q.PrepCost(), counters.FullOptimizations.Load(), maxTemplates)
	}
	if q.PrepCost() < maxTemplates {
		t.Errorf("%d full optimizations: the statement no longer reaches the bound %d", q.PrepCost(), maxTemplates)
	}
	if _, err := cache.CostFor(q, catalog.NewConfiguration()); err != nil {
		t.Fatal(err)
	}
}
