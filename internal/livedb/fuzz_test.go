package livedb_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/livedb"
	"repro/internal/sqlparse"
)

// FuzzImportSQL feeds arbitrary bytes through the importer's front door (a
// SQL file over the fake snapshot) and holds what the DBA is promised: every
// statement is accounted for, every imported query is one the designer can
// take, and the splitter, the template and the binder read the text the way
// the parser does. The committed corpus (testdata/fuzz/FuzzImportSQL) holds
// the fake's pg_stat_statements rows and one statement per token kind and
// parameter position.
func FuzzImportSQL(f *testing.F) {
	_, snap := snapFake(f)
	f.Add("SELECT order_id FROM orders WHERE customer_id = $1; BEGIN")
	f.Fuzz(func(t *testing.T, text string) {
		stmts := sqlparse.SplitScript(text)
		if again := sqlparse.SplitScript(strings.Join(stmts, ";")); !reflect.DeepEqual(again, stmts) {
			t.Fatalf("split %q, joined and split again %q", stmts, again)
		}

		rep := livedb.ImportSQLFile("fuzz.sql", text, snap, livedb.ImportOptions{MaxTemplates: 1 << 20})
		if rep.Seen != len(stmts) {
			t.Fatalf("seen %d of %d statements", rep.Seen, len(stmts))
		}
		// Every statement is behind a skipped entry or an imported weight.
		skipped := map[string]bool{}
		for _, s := range rep.Skipped {
			if s.Reason == "" {
				t.Fatalf("%q skipped without a reason", s.SQL)
			}
			skipped[sqlparse.Template(s.SQL)] = true
		}
		seen := map[string]bool{}
		var first []string // of each template that was not skipped, the first text that instantiates
		var weight float64
		for _, s := range stmts {
			key := sqlparse.Template(s)
			if skipped[key] {
				continue
			}
			if !seen[key] {
				if _, _, err := livedb.Instantiate(s, snap); err == nil {
					seen[key] = true
					first = append(first, s)
				}
			}
			weight++
		}
		var imported float64
		for _, q := range rep.Queries {
			imported += q.Weight
		}
		if len(rep.Queries) != len(first) || imported != weight || len(skipped) != len(rep.Skipped) {
			t.Fatalf("%d statements in %d+%d templates, imported %d with weight %v, skipped %d",
				len(stmts), len(first), len(skipped), len(rep.Queries), imported, len(rep.Skipped))
		}

		// An imported query holds no parameter, and its SQL parses and
		// resolves to the statement the importer kept without re-parsing.
		var bound []string
		for _, q := range rep.Queries {
			if p := q.Stmt.FirstParam(); p != nil {
				t.Fatalf("%q imported with %s unbound", q.SQL, p)
			}
			again, err := sqlparse.ParseSelect(q.SQL)
			if err == nil {
				err = sqlparse.Resolve(again, snap.Schema)
			}
			if err != nil || again.String() != q.Stmt.String() {
				t.Fatalf("imported SQL %q: %v; reads %q, kept %q", q.SQL, err, again, q.Stmt)
			}
			bound = append(bound, sqlparse.Template(q.Stmt.String()))
		}
		// Binding replaces parameters by constants and nothing else: the
		// canonical rendering has one template before and after.
		var open []string
		for _, s := range first {
			stmt, err := sqlparse.ParseSelect(s)
			if err == nil {
				err = sqlparse.Resolve(stmt, snap.Schema)
			}
			if err != nil {
				t.Fatalf("%q was imported: %v", s, err)
			}
			open = append(open, sqlparse.Template(stmt.String()))
		}
		sort.Strings(open)
		sort.Strings(bound)
		if !reflect.DeepEqual(open, bound) {
			t.Fatalf("templates before binding %q, after %q", open, bound)
		}
	})
}
