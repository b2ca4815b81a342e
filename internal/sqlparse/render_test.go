package sqlparse

import (
	"reflect"
	"strings"
	"testing"
)

// TestExpressionRendering sweeps every AST node's String form through a
// parse -> render -> reparse cycle.
func TestExpressionRendering(t *testing.T) {
	inputs := []string{
		"SELECT a FROM t WHERE NOT (a = 1)",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 2",
		"SELECT a FROM t WHERE a IN (1, 2, 3)",
		"SELECT a FROM t WHERE a IS NULL",
		"SELECT a FROM t WHERE a IS NOT NULL",
		"SELECT a FROM t WHERE a = 1 OR (b = 2 AND c = 3)",
		"SELECT COUNT(*), SUM(a), MIN(b) FROM t",
		"SELECT a + b * 2 FROM t",
		"SELECT t.a AS x FROM tab t",
		"SELECT DISTINCT a FROM t ORDER BY a DESC, b LIMIT 3",
		"SELECT a FROM t WHERE s = 'x''y'",
		"SELECT a FROM t WHERE a = NULL",
	}
	for _, sql := range inputs {
		s1, err := ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		text := s1.String()
		s2, err := ParseSelect(text)
		if err != nil {
			t.Fatalf("render %q does not reparse: %v", text, err)
		}
		if s2.String() != text {
			t.Fatalf("unstable rendering:\n%s\n%s", text, s2.String())
		}
	}
}

func TestDDLRendering(t *testing.T) {
	for _, sql := range []string{
		"CREATE TABLE t (a BIGINT, b DOUBLE, c TEXT, PRIMARY KEY (a))",
		"CREATE UNIQUE INDEX i ON t (a, b)",
		"CREATE INDEX j ON t (c)",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		text := stmt.String()
		if _, err := Parse(text); err != nil {
			t.Fatalf("DDL render %q does not reparse: %v", text, err)
		}
	}
}

func TestWalkColumnsCoversAllNodeTypes(t *testing.T) {
	sel, err := ParseSelect(
		"SELECT COUNT(x), a + b FROM t WHERE NOT (c = 1) AND d BETWEEN e AND f AND g IN (h, 1) AND i IS NULL AND o > $1" +
			" GROUP BY a HAVING NOT (SUM(j) = 1) AND MIN(k) BETWEEN 1 AND AVG(l) AND MAX(m) IN (1, COUNT(*)) AND SUM(n) + 1 IS NOT NULL LIMIT $2")
	if err != nil {
		t.Fatal(err)
	}
	// The parameter is a leaf like any other: walked past, found, rendered.
	if p := sel.FirstParam(); p == nil || p.Name != "$1" || !strings.HasSuffix(sel.String(), " LIMIT $2") {
		t.Errorf("FirstParam = %v, rendering %q", p, sel)
	}
	sel.Where = Rewrite(sel.Where, func(e Expr) Expr {
		if _, ok := e.(*Param); ok {
			return &Literal{}
		}
		return e
	})
	if p := sel.FirstParam(); p != sel.LimitParam {
		t.Errorf("FirstParam after binding WHERE = %v, want the LIMIT parameter", p)
	}
	seen := map[string]bool{}
	sel.EachExpr(func(slot *Expr) {
		WalkColumns(*slot, func(c *ColumnRef) { seen[strings.ToLower(c.Column)] = true })
	})
	for _, want := range []string{"x", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o"} {
		if !seen[want] {
			t.Errorf("WalkColumns missed %q (saw %v)", want, seen)
		}
	}
	// The aggregate readings see a call under every node kind too.
	wantAggs := []string{"count(x)", "sum(j)", "min(k)", "avg(l)", "max(m)", "count(*)", "sum(n)"}
	if got := sel.Analysis().Aggregates; !reflect.DeepEqual(got, wantAggs) {
		t.Errorf("Aggregates = %v, want %v", got, wantAggs)
	}
	for _, proj := range []string{
		"MAX(x) + 1", "NOT (MAX(x) = 1)", "MAX(x) BETWEEN 1 AND 2", "1 BETWEEN 0 AND MAX(x)",
		"MAX(x) IN (1, 2)", "1 IN (2, MAX(x))", "MAX(x) IS NULL",
	} {
		sel, err := ParseSelect("SELECT " + proj + " FROM t")
		if err != nil {
			t.Fatalf("%s: %v", proj, err)
		}
		if !sel.Analysis().Aggregate {
			t.Errorf("Aggregate missed the call in %q", proj)
		}
		if got := sel.Analysis().Aggregates; !reflect.DeepEqual(got, []string{"max(x)"}) {
			t.Errorf("Aggregates(%q) = %v, want [max(x)]", proj, got)
		}
	}
	if sel, _ := ParseSelect("SELECT a + 1 FROM t WHERE b IN (1, 2)"); sel.Analysis().Aggregate {
		t.Error("Aggregate invented an aggregate")
	}
}

func TestReverseCmpAllOps(t *testing.T) {
	cases := map[BinOp]BinOp{
		OpLt: OpGt, OpGt: OpLt, OpLe: OpGe, OpGe: OpLe, OpEq: OpEq, OpNe: OpNe,
	}
	for in, want := range cases {
		if got := reverseCmp(in); got != want {
			t.Errorf("reverseCmp(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestJoinEdgeString(t *testing.T) {
	e := JoinEdge{LeftTable: "a", LeftColumn: "x", RightTable: "b", RightColumn: "y"}
	if e.String() != "a.x = b.y" {
		t.Fatalf("edge = %q", e.String())
	}
}

// columnsIn reads the distinct "table.column" references (lower-cased,
// first-seen order) off one Walk.
func columnsIn(e Expr) []string {
	seen := map[string]bool{}
	var out []string
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*ColumnRef); ok {
			if key := strings.ToLower(c.Table + "." + c.Column); !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
		return true
	})
	return out
}

func TestColumnsIn(t *testing.T) {
	sel, err := ParseSelect("SELECT a FROM t WHERE t.a = 1 AND t.b > 2 AND t.a < 5")
	if err != nil {
		t.Fatal(err)
	}
	cols := columnsIn(sel.Where)
	if len(cols) != 2 {
		t.Fatalf("columnsIn = %v, want 2 distinct", cols)
	}
}
