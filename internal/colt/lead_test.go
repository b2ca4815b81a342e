package colt

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// referenceCandidates is how the tuner extracted its candidates before it
// read the statement's Leads: sargable filter columns table by table, both
// endpoints of every equi-join, then the first ORDER BY column when it is a
// plain column, lower-case, each once.
func referenceCandidates(sel *sqlparse.SelectStmt) []candidate {
	var out []candidate
	add := func(table, column string) {
		c := candidate{table: strings.ToLower(table), column: strings.ToLower(column)}
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	a := sel.Analysis()
	for i, table := range a.Tables {
		for _, conj := range a.Filters[i] {
			if sr, ok := sqlparse.SargableOf(conj); ok {
				add(table, sr.Column)
			}
		}
	}
	for _, j := range a.Joins {
		add(j.LeftTable, j.LeftColumn)
		add(j.RightTable, j.RightColumn)
	}
	if len(sel.OrderBy) > 0 {
		if col, ok := sel.OrderBy[0].Expr.(*sqlparse.ColumnRef); ok {
			add(col.Table, col.Column)
		}
	}
	return out
}

// TestCandidatesAreTheReference holds the candidates read off the Leads to
// the reference extractor, sequence for sequence, over every statement of
// each workload profile's stream (seeds 1 and 5) and two statements that
// spell names in mixed case.
func TestCandidatesAreTheReference(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 101)
	if err != nil {
		t.Fatal(err)
	}
	var stmts []*sqlparse.SelectStmt
	for _, seed := range []int64{1, 5} {
		for _, name := range workload.ProfileNames() {
			profile, err := workload.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := profile.GenerateStream(store.Schema, seed, 120)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range stream {
				stmts = append(stmts, q.Stmt)
			}
		}
	}
	for _, sql := range []string{
		"SELECT PsfMag_R FROM PhotoObj WHERE PsfMag_R < 14 AND psfmag_r > 12 ORDER BY Ra",
		"SELECT p.objid FROM photoobj p JOIN SpecObj s ON p.ObjID = s.BestObjID WHERE s.Z > 1.2 ORDER BY p.objid",
	} {
		stmt, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(stmt, store.Schema); err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, stmt)
	}
	for _, stmt := range stmts {
		if got, want := candidatesOf(stmt), referenceCandidates(stmt); !slices.Equal(got, want) {
			t.Fatalf("%s: candidates %v, the reference %v", stmt, got, want)
		}
	}
}
