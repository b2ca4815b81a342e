package sqlparse_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/workload"
)

var sdss = workload.Schema()

// shapeOf lists a statement's expression nodes in pre-order: a literal by
// its kind, an operator by its symbol, any other node by its type. AND and
// OR nodes are only counted, since a chain of one of them may come back
// associated the other way.
func shapeOf(sel *sqlparse.SelectStmt) string {
	var b strings.Builder
	logical := map[sqlparse.BinOp]int{}
	sel.EachExpr(func(slot *sqlparse.Expr) {
		sqlparse.Walk(*slot, func(e sqlparse.Expr) bool {
			switch n := e.(type) {
			case *sqlparse.Literal:
				fmt.Fprintf(&b, "Literal(%v) ", n.Value.Kind)
			case *sqlparse.BinaryExpr:
				if n.Op == sqlparse.OpAnd || n.Op == sqlparse.OpOr {
					logical[n.Op]++
				} else {
					fmt.Fprintf(&b, "%s ", n.Op)
				}
			default:
				fmt.Fprintf(&b, "%T ", e)
			}
			return true
		})
		b.WriteString("| ")
	})
	fmt.Fprintf(&b, "AND×%d OR×%d", logical[sqlparse.OpAnd], logical[sqlparse.OpOr])
	return b.String()
}

// checkRoundTrip is the canonical-form contract on one input. If sql parses,
// its rendering parses into a tree of the same shape (node types, literal
// kinds) and renders to itself; if it also resolves against the SDSS
// schema, so does the resolved rendering, again to itself.
func checkRoundTrip(t *testing.T, sql string) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return
	}
	reparse := func(from *sqlparse.SelectStmt, text string) *sqlparse.SelectStmt {
		again, err := sqlparse.ParseSelect(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", sql, text, err)
		}
		if want, got := shapeOf(from), shapeOf(again); got != want {
			t.Fatalf("%q renders as %q, which parses into another tree:\n got %s\nwant %s", sql, text, got, want)
		}
		return again
	}
	rendered := sel.String()
	if got := reparse(sel, rendered).String(); got != rendered {
		t.Fatalf("%q renders as %q, then as %q", sql, rendered, got)
	}

	if sqlparse.Resolve(sel, sdss) != nil {
		return
	}
	canonical := sel.String()
	again := reparse(sel, canonical)
	if err := sqlparse.Resolve(again, sdss); err != nil {
		t.Fatalf("%q resolves and renders as %q, which does not resolve: %v", sql, canonical, err)
	}
	if got := again.String(); got != canonical {
		t.Fatalf("%q resolves and renders as %q, then as %q", sql, canonical, got)
	}
}

// FuzzParseRenderParse fuzzes the contract. The committed corpus
// (testdata/fuzz/FuzzParseRenderParse) holds one statement of every template
// of every workload profile and of the drift stream, render_test.go's
// inputs, and the shapes that once rendered wrongly (shape-integral-float:
// a float with an integral value once rendered as "3" and came back an
// integer).
func FuzzParseRenderParse(f *testing.F) {
	f.Add("SELECT p.objid FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE (s.z > 1 OR p.type = 3) AND NOT (p.ra = 0)")
	f.Add("SELECT objid FROM photoobj WHERE ra-$1 > 3 AND type IN ($2, 3) ORDER BY ra LIMIT $3")
	f.Fuzz(checkRoundTrip)
}

// TestCanonicalFormOnWorkloads holds the contract on the statements the
// designer is actually driven with: 200 of every workload profile and the
// drift stream.
func TestCanonicalFormOnWorkloads(t *testing.T) {
	n := 0
	for _, p := range workload.Profiles() {
		w, err := p.Generate(sdss, 1, 200)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			checkRoundTrip(t, q.SQL)
			n++
		}
	}
	stream, err := workload.Stream(sdss, 1, workload.DefaultDriftPhases(100))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range stream {
		checkRoundTrip(t, q.SQL)
		n++
	}
	if n != 1300 {
		t.Fatalf("checked %d statements, want 1300", n)
	}
}
