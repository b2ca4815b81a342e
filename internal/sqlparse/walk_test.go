package sqlparse

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// everyNode holds one node of every kind, each interior kind with all of its
// child slots filled.
const everyNode = "SELECT * FROM t WHERE NOT (a = 1) AND b BETWEEN c AND d AND e IN (f, 2) AND g IS NULL AND SUM(h + 3) > 4"

func TestWalkIsPreOrderAndPrunes(t *testing.T) {
	sel := parseSelect(t, everyNode)
	var order []string
	Walk(sel.Where, func(e Expr) bool {
		if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
			return true // the conjunction's spine
		}
		order = append(order, fmt.Sprintf("%T %s", e, e))
		return true
	})
	want := []string{
		"*sqlparse.NotExpr NOT (a = 1)", "*sqlparse.BinaryExpr a = 1", "*sqlparse.ColumnRef a", "*sqlparse.Literal 1",
		"*sqlparse.BetweenExpr b BETWEEN c AND d", "*sqlparse.ColumnRef b", "*sqlparse.ColumnRef c", "*sqlparse.ColumnRef d",
		"*sqlparse.InExpr e IN (f, 2)", "*sqlparse.ColumnRef e", "*sqlparse.ColumnRef f", "*sqlparse.Literal 2",
		"*sqlparse.IsNullExpr g IS NULL", "*sqlparse.ColumnRef g",
		"*sqlparse.BinaryExpr SUM(h + 3) > 4", "*sqlparse.FuncExpr SUM(h + 3)", "*sqlparse.BinaryExpr h + 3",
		"*sqlparse.ColumnRef h", "*sqlparse.Literal 3", "*sqlparse.Literal 4",
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("visit order:\n got %q\nwant %q", order, want)
	}

	// Pruning at a node skips exactly its subtree.
	var cols []string
	Walk(sel.Where, func(e Expr) bool {
		if c, ok := e.(*ColumnRef); ok {
			cols = append(cols, c.Column)
		}
		_, isAgg := e.(*FuncExpr)
		_, isIn := e.(*InExpr)
		return !isAgg && !isIn
	})
	if got := strings.Join(cols, ""); got != "abcdg" {
		t.Errorf("pruned walk saw columns %q, want abcdg", got)
	}
	Walk(nil, func(Expr) bool { t.Error("visited nil"); return true })
}

func TestRewriteRebuildsBottomUp(t *testing.T) {
	sel := parseSelect(t, everyNode)
	before := sel.Where.String()

	// The identity rewrite renders the same and shares no interior node.
	same := Rewrite(sel.Where, func(e Expr) Expr { return e })
	if same.String() != before {
		t.Errorf("identity rewrite rendered %q, want %q", same, before)
	}
	interior := map[Expr]bool{}
	Walk(sel.Where, func(e Expr) bool {
		switch e.(type) {
		case *ColumnRef, *Literal, *StarExpr:
		default:
			interior[e] = true
		}
		return true
	})
	Walk(same, func(e Expr) bool {
		if interior[e] {
			t.Errorf("rewritten tree shares interior node %s", e)
		}
		return true
	})

	// Children are rewritten before their parent sees them, under every
	// node kind; the input is left alone.
	var parents []string
	upper := Rewrite(sel.Where, func(e Expr) Expr {
		if c, ok := e.(*ColumnRef); ok {
			return &ColumnRef{Table: "T", Column: strings.ToUpper(c.Column)}
		}
		if _, leaf := e.(*Literal); !leaf {
			parents = append(parents, e.String())
		}
		return e
	})
	want := "NOT (T.A = 1) AND T.B BETWEEN T.C AND T.D AND T.E IN (T.F, 2) AND T.G IS NULL AND SUM(T.H + 3) > 4"
	if upper.String() != want {
		t.Errorf("rewrite rendered %q, want %q", upper, want)
	}
	for _, p := range parents {
		if strings.ContainsAny(p, "abcdefgh") {
			t.Errorf("parent %q was handed to fn before its children were rewritten", p)
		}
	}
	if sel.Where.String() != before {
		t.Errorf("Rewrite modified its input: %q", sel.Where)
	}
	if Rewrite(nil, func(e Expr) Expr { return e }) != nil {
		t.Error("Rewrite(nil) is not nil")
	}
}

func TestEachExprListsEveryClause(t *testing.T) {
	sel := parseSelect(t, "SELECT a, b + 1 AS x FROM t WHERE c = 1 GROUP BY d, e HAVING MAX(f) > 2 ORDER BY g DESC, h")
	var got []string
	sel.EachExpr(func(slot *Expr) { got = append(got, (*slot).String()) })
	want := []string{"a", "b + 1", "c = 1", "d", "e", "MAX(f) > 2", "g", "h"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EachExpr = %q, want %q", got, want)
	}
	// Absent WHERE and HAVING are still slots, and slots are writable.
	bare := parseSelect(t, "SELECT a FROM t")
	n := 0
	bare.EachExpr(func(slot *Expr) {
		n++
		if *slot == nil {
			*slot = &Literal{}
		}
	})
	if n != 3 || bare.Where == nil || bare.Having == nil {
		t.Errorf("EachExpr over a bare statement: %d slots, where %v, having %v", n, bare.Where, bare.Having)
	}
}

// TestRenderKeepsTreeShape: String() adds the parentheses an operand needs,
// so the rendering parses back into the same tree — not just into text that
// happens to render the same.
func TestRenderKeepsTreeShape(t *testing.T) {
	for _, expr := range []string{
		"(a + b) * 2", "a - (b - c)", "a / (b * c)", "a - b - c", "a + b * 2", "-(a + b)", "-a * b",
		"(a = 1) = 2", "(NOT (a = 1)) = b", "(a OR b) AND c", "a OR b AND c", "NOT (a OR b)",
		"(a + 1) BETWEEN (b - 1) AND (c * 2)", "(a < b) BETWEEN 0 AND 1", "(a = 1) IS NULL",
		"(a < b) IN (1, (c = d))", "SUM(a + b) * 2 > (c OR d)", "a - -5", "a * -5",
	} {
		sql := "SELECT " + expr + " FROM t"
		sel := parseSelect(t, sql)
		again := parseSelect(t, sel.String())
		if !reflect.DeepEqual(sel, again) {
			t.Errorf("%s renders as %q, which parses to a different tree (%q)", sql, sel, again)
		}
	}
}

// TestResolvedRenderingIsCanonical: Resolve leaves nothing in FROM that the
// references no longer use, so the rendering resolves to itself.
func TestResolvedRenderingIsCanonical(t *testing.T) {
	sel := parseSelect(t, "SELECT a.x, b.y FROM p a JOIN q AS b ON a.id = b.pid WHERE y > 1 ORDER BY a.x")
	if err := Resolve(sel, testSchema()); err != nil {
		t.Fatal(err)
	}
	want := "SELECT p.x, q.y FROM p, q WHERE q.y > 1 AND p.id = q.pid ORDER BY p.x"
	if sel.String() != want {
		t.Fatalf("resolved rendering %q, want %q", sel, want)
	}
	again := parseSelect(t, sel.String())
	if err := Resolve(again, testSchema()); err != nil {
		t.Fatalf("resolved rendering does not resolve: %v", err)
	}
	if again.String() != want {
		t.Errorf("re-rendered %q, want %q", again, want)
	}
	// Resolve is idempotent on its own output.
	if err := Resolve(sel, testSchema()); err != nil || sel.String() != want {
		t.Errorf("second Resolve: %v, %q", err, sel)
	}
}
