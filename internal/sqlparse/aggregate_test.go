package sqlparse

import (
	"reflect"
	"testing"
)

func parseSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("%q is not a SELECT", sql)
	}
	return sel
}

// TestAggregateAnalysis pins the three analysis readings aggregate-MV
// matching is built on, over the shapes that exercised their edge cases:
// HAVING-only aggregates, aliased aggregates, and computed group keys.
func TestAggregateAnalysis(t *testing.T) {
	cases := []struct {
		sql       string
		hasAgg    bool
		groupKeys []string
		allPlain  bool
		aggs      []string
	}{
		{
			sql:       "SELECT run, COUNT(*) FROM photoobj GROUP BY run",
			hasAgg:    true,
			groupKeys: []string{"run"},
			allPlain:  true,
			aggs:      []string{"count(*)"},
		},
		{
			// An aggregate appearing only in HAVING must still be collected:
			// an MV that does not store it cannot answer the query.
			sql:       "SELECT run FROM photoobj GROUP BY run HAVING SUM(psfmag_r) > 100",
			hasAgg:    true,
			groupKeys: []string{"run"},
			allPlain:  true,
			aggs:      []string{"sum(psfmag_r)"},
		},
		{
			// Aliases change the projection label, not the canonical
			// aggregate string.
			sql:       "SELECT Run, AVG(PsfMag_r) AS mean_mag FROM photoobj GROUP BY Run",
			hasAgg:    true,
			groupKeys: []string{"run"},
			allPlain:  true,
			aggs:      []string{"avg(psfmag_r)"},
		},
		{
			// Aggregates nested in arithmetic are collected individually.
			sql:       "SELECT camcol, MAX(ra) - MIN(ra) AS spread FROM photoobj GROUP BY camcol",
			hasAgg:    true,
			groupKeys: []string{"camcol"},
			allPlain:  true,
			aggs:      []string{"max(ra)", "min(ra)"},
		},
		{
			// A computed group key: the plain column is still reported, but
			// allPlain flips false — the MV layer must refuse to match.
			sql:       "SELECT run, COUNT(*) FROM photoobj GROUP BY run, ra + dec",
			hasAgg:    true,
			groupKeys: []string{"run"},
			allPlain:  false,
			aggs:      []string{"count(*)"},
		},
		{
			// GROUP BY with no aggregate function still aggregates (DISTINCT
			// semantics).
			sql:       "SELECT type FROM photoobj GROUP BY type",
			hasAgg:    true,
			groupKeys: []string{"type"},
			allPlain:  true,
		},
		{
			// No GROUP BY: no keys, and allPlain is vacuously true.
			sql:      "SELECT objid, ra FROM photoobj WHERE run = 1",
			hasAgg:   false,
			allPlain: true,
		},
	}
	for _, c := range cases {
		a := parseSelect(t, c.sql).Analysis()
		if a.Aggregate != c.hasAgg {
			t.Errorf("%q: Aggregate = %v, want %v", c.sql, a.Aggregate, c.hasAgg)
		}
		if !reflect.DeepEqual(a.GroupKeys, c.groupKeys) {
			t.Errorf("%q: GroupKeys = %v, want %v", c.sql, a.GroupKeys, c.groupKeys)
		}
		if a.PlainGroups != c.allPlain {
			t.Errorf("%q: PlainGroups = %v, want %v", c.sql, a.PlainGroups, c.allPlain)
		}
		if !reflect.DeepEqual(a.Aggregates, c.aggs) {
			t.Errorf("%q: Aggregates = %v, want %v", c.sql, a.Aggregates, c.aggs)
		}
	}
}
