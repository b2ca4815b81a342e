package optimizer_test

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
)

func resolvedStmt(t *testing.T, env *optimizer.Env, sql string) *sqlparse.SelectStmt {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, env.Schema); err != nil {
		t.Fatal(err)
	}
	return sel
}

// designOn is one table's slice of a configuration: what BestTableAccess
// and AccessCosts see of it.
func designOn(cfg *catalog.Configuration, table string) optimizer.TableDesign {
	return optimizer.TableDesign{Indexes: cfg.IndexesOn(table), Vertical: cfg.VerticalOn(table), Horizontal: cfg.HorizontalOn(table)}
}

func TestBestTableAccessUnordered(t *testing.T) {
	envBase := testEnv(t, nil)
	cfg := catalog.NewConfiguration().WithIndex(hypoIndex(envBase, "photoobj", "objid"))
	env := envBase.WithConfig(cfg)
	sel := resolvedStmt(t, env, "SELECT objid, ra FROM photoobj WHERE objid = 1000005")

	acc, err := env.BestTableAccess(sel, "photoobj", designOn(env.Config, "photoobj"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Node.Kind != optimizer.NodeIndexScan && acc.Node.Kind != optimizer.NodeIndexOnlyScan {
		t.Fatalf("selective point lookup should use the index, got %s", acc.Node.Kind)
	}
	if acc.Cost <= 0 || acc.Sorted {
		t.Fatalf("acc = %+v", acc)
	}
}

func TestBestTableAccessWithRequiredOrder(t *testing.T) {
	envBase := testEnv(t, nil)
	sel := resolvedStmt(t, envBase, "SELECT objid, ra FROM photoobj WHERE psfmag_r < 30")
	want := []optimizer.OrderKey{{Table: "photoobj", Column: "ra"}}

	// Without any index the order can only come from an explicit sort.
	acc, err := envBase.BestTableAccess(sel, "photoobj", designOn(envBase.Config, "photoobj"), want)
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Sorted {
		t.Fatalf("no index: expected sorted access, got %+v", acc)
	}
	// With an index on ra, the ordered path should win for cheap orders.
	cfg := catalog.NewConfiguration().WithIndex(hypoIndex(envBase, "photoobj", "ra"))
	env := envBase.WithConfig(cfg)
	acc2, err := env.BestTableAccess(sel, "photoobj", designOn(env.Config, "photoobj"), want)
	if err != nil {
		t.Fatal(err)
	}
	if acc2.Cost > acc.Cost {
		t.Fatalf("index order option should not cost more: %f vs %f", acc2.Cost, acc.Cost)
	}
}

func TestBestTableAccessUnknownTable(t *testing.T) {
	env := testEnv(t, nil)
	sel := resolvedStmt(t, env, "SELECT objid FROM photoobj")
	if _, err := env.BestTableAccess(sel, "nosuch", optimizer.TableDesign{}, nil); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestNodeKindStrings(t *testing.T) {
	kinds := []optimizer.NodeKind{
		optimizer.NodeSeqScan, optimizer.NodeIndexScan, optimizer.NodeIndexOnlyScan,
		optimizer.NodeNestLoop, optimizer.NodeHashJoin, optimizer.NodeMergeJoin,
		optimizer.NodeSort, optimizer.NodeHashAgg, optimizer.NodeLimit, optimizer.NodeProject,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if !strings.Contains(optimizer.NodeKind(99).String(), "99") {
		t.Fatal("unknown kind should render its number")
	}
}

func TestOrderKeyAndAggSpecStrings(t *testing.T) {
	k := optimizer.OrderKey{Table: "t", Column: "c", Desc: true}
	if k.String() != "t.c DESC" {
		t.Fatalf("OrderKey = %q", k.String())
	}
	a := optimizer.AggSpec{Func: sqlparse.AggCount, Star: true}
	if a.String() != "COUNT(*)" {
		t.Fatalf("AggSpec = %q", a.String())
	}
}

// TestCanUseMirrorsPathGeneration walks the relevance rule case by case and
// checks each verdict against what path generation does with the structure:
// a structure CanUse rejects must leave every access cost where it was, in
// any order and in each order a query or one of its INUM templates can want
// of the table — one of the statement's order Leads.
func TestCanUseMirrorsPathGeneration(t *testing.T) {
	env := testEnv(t, nil)
	const plain = "SELECT ra, dec FROM photoobj WHERE type = 3 ORDER BY dec"
	cases := []struct {
		name string
		sql  string
		ix   *catalog.Index
		want bool
	}{
		{"leading column filtered", plain, hypoIndex(env, "photoobj", "type", "objid"), true},
		{"leading column only projected", plain, hypoIndex(env, "photoobj", "ra"), false},
		{"leading column only ordered by", plain, hypoIndex(env, "photoobj", "dec", "objid"), true},
		{"covering, leading column unreferenced", plain, hypoIndex(env, "photoobj", "objid", "ra", "dec", "type"), true},
		{"unreferenced and not covering", plain, hypoIndex(env, "photoobj", "objid", "ra"), false},
		{"aggregate view on a plain query", plain, &catalog.Index{Table: "photoobj", Columns: []string{"type"}, Kind: catalog.KindAggView, Aggs: []string{"count(*)"}}, false},
		{"leading column only grouped by", "SELECT type, COUNT(*) FROM photoobj WHERE ra < 10 GROUP BY type", hypoIndex(env, "photoobj", "type", "objid"), false},
		{"leading column only a join key", "SELECT p.ra, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid", hypoIndex(env, "photoobj", "objid", "run"), true},
	}
	for _, tc := range cases {
		sel := resolvedStmt(t, env, tc.sql)
		if got := optimizer.CanUse(sel, "photoobj", tc.ix); got != tc.want {
			t.Errorf("%s: CanUse = %v, want %v", tc.name, got, tc.want)
		}
		if tc.want {
			continue
		}
		orders := [][]optimizer.OrderKey{nil}
		for l := range sel.Leads {
			if l.Order && l.Table == "photoobj" {
				orders = append(orders, []optimizer.OrderKey{{Table: l.Table, Column: l.Column}}, []optimizer.OrderKey{{Table: l.Table, Column: l.Column, Desc: true}})
			}
		}
		bare, err := env.AccessCosts(sel, "photoobj", optimizer.TableDesign{}, orders)
		if err != nil {
			t.Fatal(err)
		}
		with, err := env.AccessCosts(sel, "photoobj", optimizer.TableDesign{Indexes: []*catalog.Index{tc.ix}}, orders)
		if err != nil {
			t.Fatal(err)
		}
		for i := range with {
			if with[i] != bare[i] {
				t.Errorf("%s: rejected, yet access cost %d moved from %v to %v", tc.name, i, bare[i], with[i])
			}
		}
	}

	star := resolvedStmt(t, env, "SELECT * FROM field")
	if optimizer.CanUse(star, "field", hypoIndex(env, "field", "quality", "fieldid")) {
		t.Error("SELECT * admits no index-only scan: a covering index with an unreferenced leading column is invisible")
	}
	agg := resolvedStmt(t, env, "SELECT type, COUNT(*) FROM photoobj GROUP BY type")
	view := func(keys ...string) *catalog.Index {
		return &catalog.Index{Table: "photoobj", Columns: keys, Kind: catalog.KindAggView, Aggs: []string{"count(*)"}}
	}
	if !optimizer.CanUse(agg, "photoobj", view("type", "fieldid")) || optimizer.CanUse(agg, "photoobj", view("fieldid")) {
		t.Error("an aggregate view is usable exactly when the query's group keys are among its keys")
	}
}

// TestAccessCostsIsBestAccessCost holds AccessCosts to BestTableAccess, order
// by order, under a design with matching, ordering and useless indexes.
func TestAccessCostsIsBestAccessCost(t *testing.T) {
	env := testEnv(t, nil)
	sel := resolvedStmt(t, env, "SELECT objid, ra FROM photoobj WHERE psfmag_r < 18 AND type = 3")
	d := optimizer.TableDesign{Indexes: []*catalog.Index{
		hypoIndex(env, "photoobj", "type", "psfmag_r"),
		hypoIndex(env, "photoobj", "ra"),
		hypoIndex(env, "photoobj", "fieldid"),
	}}
	orders := [][]optimizer.OrderKey{
		nil,
		{{Table: "photoobj", Column: "ra"}},
		{{Table: "photoobj", Column: "ra", Desc: true}},
		{{Table: "photoobj", Column: "dec"}},
	}
	costs, err := env.AccessCosts(sel, "photoobj", d, orders)
	if err != nil {
		t.Fatal(err)
	}
	for i, required := range orders {
		acc, err := env.BestTableAccess(sel, "photoobj", d, required)
		if err != nil {
			t.Fatal(err)
		}
		if costs[i] != acc.Cost {
			t.Errorf("order %v: AccessCosts %v, BestTableAccess %v", required, costs[i], acc.Cost)
		}
	}
	if _, err := env.AccessCosts(sel, "nosuch", d, orders); err == nil {
		t.Error("unknown table should error")
	}
}
