package executor_test

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// nullableFixture builds two small tables with NULLs in join keys.
func nullableFixture(t *testing.T) (*storage.Store, *optimizer.Env, *executor.Executor) {
	t.Helper()
	schema := catalog.NewSchema()
	schema.MustAddTable(catalog.MustTable("l", []catalog.Column{
		{Name: "id", Type: catalog.KindInt},
		{Name: "k", Type: catalog.KindInt},
	}, "id"))
	schema.MustAddTable(catalog.MustTable("r", []catalog.Column{
		{Name: "id", Type: catalog.KindInt},
		{Name: "k", Type: catalog.KindInt},
		{Name: "v", Type: catalog.KindFloat},
	}, "id"))
	store := storage.NewStore(schema)
	lRows := []catalog.Row{
		{catalog.Int(1), catalog.Int(10)},
		{catalog.Int(2), catalog.Null()},
		{catalog.Int(3), catalog.Int(30)},
		{catalog.Int(4), catalog.Int(10)},
	}
	rRows := []catalog.Row{
		{catalog.Int(1), catalog.Int(10), catalog.Float(1)},
		{catalog.Int(2), catalog.Null(), catalog.Float(2)},
		{catalog.Int(3), catalog.Int(40), catalog.Null()},
	}
	if err := store.Load("l", lRows); err != nil {
		t.Fatal(err)
	}
	if err := store.Load("r", rRows); err != nil {
		t.Fatal(err)
	}
	if err := store.Analyze(); err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(schema, store.Stats, nil)
	return store, env, executor.New(store)
}

func runSQL(t *testing.T, env *optimizer.Env, exec *executor.Executor, opts optimizer.Options, sql string) *executor.Result {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, env.Schema); err != nil {
		t.Fatal(err)
	}
	plan, err := env.WithOptions(opts).Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestJoinNullKeysNeverMatch: SQL equality over NULL is unknown, so NULL
// join keys must not pair — in any join method.
func TestJoinNullKeysNeverMatch(t *testing.T) {
	_, env, exec := nullableFixture(t)
	sql := "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k"
	variants := []optimizer.Options{
		{DisableNestLoop: true, DisableMergeJoin: true},
		{DisableNestLoop: true, DisableHashJoin: true},
		{DisableHashJoin: true, DisableMergeJoin: true},
	}
	for _, opts := range variants {
		res := runSQL(t, env, exec, opts, sql)
		// Only l rows with k=10 match r's k=10: l.id 1 and 4.
		if len(res.Rows) != 2 {
			t.Fatalf("%+v: rows = %d, want 2 (NULL keys must not join): %v",
				opts, len(res.Rows), res.Rows)
		}
	}
}

func TestAggregatesSkipNulls(t *testing.T) {
	_, env, exec := nullableFixture(t)
	res := runSQL(t, env, exec, optimizer.Options{},
		"SELECT COUNT(*), COUNT(v), SUM(v), MIN(v) FROM r")
	row := res.Rows[0]
	if row[0].I != 3 || row[1].I != 2 {
		t.Fatalf("COUNT(*)=%v COUNT(v)=%v, want 3/2", row[0], row[1])
	}
	if row[2].F != 3 {
		t.Fatalf("SUM(v)=%v, want 3", row[2])
	}
	if row[3].F != 1 {
		t.Fatalf("MIN(v)=%v, want 1", row[3])
	}
}

func TestGroupByEmptyInputYieldsNoGroups(t *testing.T) {
	_, env, exec := nullableFixture(t)
	res := runSQL(t, env, exec, optimizer.Options{},
		"SELECT k, COUNT(*) FROM l WHERE id > 100 GROUP BY k")
	if len(res.Rows) != 0 {
		t.Fatalf("empty input should produce no groups, got %v", res.Rows)
	}
}

func TestLimitBeyondResultSize(t *testing.T) {
	_, env, exec := nullableFixture(t)
	res := runSQL(t, env, exec, optimizer.Options{},
		"SELECT id FROM l LIMIT 100")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
}

func TestLimitZero(t *testing.T) {
	_, env, exec := nullableFixture(t)
	res := runSQL(t, env, exec, optimizer.Options{}, "SELECT id FROM l LIMIT 0")
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
}

func TestIsNullPredicates(t *testing.T) {
	_, env, exec := nullableFixture(t)
	nulls := runSQL(t, env, exec, optimizer.Options{}, "SELECT id FROM l WHERE k IS NULL")
	if len(nulls.Rows) != 1 || nulls.Rows[0][0].I != 2 {
		t.Fatalf("IS NULL rows = %v", nulls.Rows)
	}
	notNulls := runSQL(t, env, exec, optimizer.Options{}, "SELECT id FROM l WHERE k IS NOT NULL")
	if len(notNulls.Rows) != 3 {
		t.Fatalf("IS NOT NULL rows = %d, want 3", len(notNulls.Rows))
	}
}

func TestEmptyTableQueries(t *testing.T) {
	schema := catalog.NewSchema()
	schema.MustAddTable(catalog.MustTable("e", []catalog.Column{
		{Name: "a", Type: catalog.KindInt},
	}, "a"))
	store := storage.NewStore(schema)
	if err := store.Analyze(); err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(schema, store.Stats, nil)
	exec := executor.New(store)
	res := runSQL(t, env, exec, optimizer.Options{}, "SELECT a FROM e WHERE a = 1")
	if len(res.Rows) != 0 {
		t.Fatal("empty table returned rows")
	}
	agg := runSQL(t, env, exec, optimizer.Options{}, "SELECT COUNT(*), MIN(a) FROM e")
	if len(agg.Rows) != 1 || agg.Rows[0][0].I != 0 || !agg.Rows[0][1].IsNull() {
		t.Fatalf("aggregate over empty = %v, want (0, NULL)", agg.Rows)
	}
}

func TestOrPredicateExecution(t *testing.T) {
	_, env, exec := nullableFixture(t)
	res := runSQL(t, env, exec, optimizer.Options{},
		"SELECT id FROM l WHERE k = 10 OR id = 3")
	if len(res.Rows) != 3 {
		t.Fatalf("OR rows = %d, want 3", len(res.Rows))
	}
}

// TestUnboundParameterIsAnErrorNotAPanic: the parse doors refuse a statement
// that still holds a $n; should one slip past them, the optimizer prices it
// with its defaults and the evaluator refuses to run it.
func TestUnboundParameterIsAnErrorNotAPanic(t *testing.T) {
	_, env, exec := nullableFixture(t)
	ran := 0
	for _, sql := range []string{
		"SELECT id FROM l WHERE k = $1",
		"SELECT id FROM l WHERE k BETWEEN $1 AND 5",
		"SELECT id, $1 FROM l WHERE k IN (1, $2)",
	} {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(sel, env.Schema); err != nil {
			t.Fatal(err)
		}
		plan, err := env.Optimize(sel)
		if err != nil {
			continue // refused earlier: as good
		}
		ran++
		if _, err := exec.Run(plan); err == nil || !strings.Contains(err.Error(), "unhandled expression *sqlparse.Param") {
			t.Errorf("%s: Run = %v, want the evaluator to refuse the parameter", sql, err)
		}
	}
	if ran == 0 {
		t.Error("no statement reached the evaluator")
	}
}
