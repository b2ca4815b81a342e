package designer_test

import (
	"strings"
	"testing"

	"repro/designer"
)

const testDDL = `
CREATE TABLE kv (
	k BIGINT,
	v DOUBLE,
	tag TEXT,
	PRIMARY KEY (k)
);
CREATE INDEX kv_v ON kv (v);
`

func TestNewFromDDL(t *testing.T) {
	d, err := designer.NewFromDDL(testDDL)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.DescribeTable("kv"); !ok {
		t.Fatal("table missing")
	}
	if !d.CurrentConfiguration().HasIndex("kv(v)") {
		t.Fatal("declared index not materialized")
	}
	// Insert maintains the declared index.
	for i := 0; i < 50; i++ {
		if err := d.Insert("kv", i, float64(i)*1.5, "tag"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Analyze(); err != nil {
		t.Fatal(err)
	}

	q, err := d.ParseQuery("q", "SELECT k FROM kv WHERE v BETWEEN 10 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	// v = 1.5*k in [10,20] -> k in {7..13}: 7 rows.
	res, err := d.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
}

func TestNewFromDDLErrors(t *testing.T) {
	cases := []string{
		"SELECT 1 FROM x;", // not DDL
		"CREATE TABLE t (a BIGINT); CREATE TABLE t (b BIGINT);", // dup table
		"CREATE INDEX i ON missing (a);",                        // unknown table
	}
	for _, ddl := range cases {
		if _, err := designer.NewFromDDL(ddl); err == nil {
			t.Errorf("DDL %q should fail", ddl)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	d, err := designer.NewFromDDL("CREATE TABLE t (a BIGINT, b DOUBLE, PRIMARY KEY (a));")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("nosuch", 1, 2.0); err == nil {
		t.Error("unknown table should fail")
	}
	if err := d.Insert("t", 1); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := d.Insert("t", 1, struct{}{}); err == nil {
		t.Error("unsupported type should fail")
	}
	if err := d.Insert("t", nil, 2.5); err != nil {
		t.Errorf("nil should insert as NULL: %v", err)
	}
	if err := d.Insert("t", "x", 2.5); err == nil {
		t.Error("TEXT into a BIGINT column should fail")
	}
	if err := d.Insert("t", 3.5, 4); err != nil {
		t.Errorf("a float into BIGINT and an int into DOUBLE should insert: %v", err)
	}
	if err := d.InsertRows("t", [][]any{{5, 6.0}, {7, "y"}}); err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Errorf("a bulk load with TEXT in a DOUBLE column should fail naming row 1, got %v", err)
	}
	s, err := designer.NewFromDDL("CREATE TABLE s (id BIGINT, name TEXT, PRIMARY KEY (id));")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("s", 1, 2.5); err == nil {
		t.Error("a number into a TEXT column should fail")
	}
	if err := s.Insert("s", 1, "x"); err != nil {
		t.Errorf("TEXT into a TEXT column should insert: %v", err)
	}
	if got := tableRows(d, "t"); got != 2 {
		t.Errorf("table t holds %d rows after the refusals, want 2", got)
	}
	if got := tableRows(s, "s"); got != 1 {
		t.Errorf("table s holds %d rows after the refusals, want 1", got)
	}
}

// tableRows returns the row count Describe reports for a table.
func tableRows(d *designer.Designer, table string) int64 {
	for _, ti := range d.Describe().Tables {
		if ti.Name == table {
			return ti.RowCount
		}
	}
	return -1
}

func TestInsertRowsRefusesIndexedTable(t *testing.T) {
	d, err := designer.NewFromDDL("CREATE TABLE t (a BIGINT, PRIMARY KEY (a)); CREATE INDEX ta ON t (a);")
	if err != nil {
		t.Fatal(err)
	}
	err = d.InsertRows("t", [][]any{{1}})
	if err == nil || !strings.Contains(err.Error(), "materialized index") {
		t.Fatalf("bulk load into indexed table should fail, got %v", err)
	}
}
