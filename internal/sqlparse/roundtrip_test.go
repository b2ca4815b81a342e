package sqlparse_test

import (
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/workload"
)

var sdss = workload.Schema()

// checkRoundTrip is the canonical-form contract on one input. If sql parses,
// its rendering parses and renders to itself; if it also resolves against
// the SDSS schema, so does the resolved rendering, again to itself.
func checkRoundTrip(t *testing.T, sql string) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return
	}
	reparse := func(text string) *sqlparse.SelectStmt {
		again, err := sqlparse.ParseSelect(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", sql, text, err)
		}
		return again
	}
	rendered := sel.String()
	if got := reparse(rendered).String(); got != rendered {
		t.Fatalf("%q renders as %q, then as %q", sql, rendered, got)
	}

	if sqlparse.Resolve(sel, sdss) != nil {
		return
	}
	canonical := sel.String()
	again := reparse(canonical)
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
// inputs, and the shapes that once rendered wrongly.
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
