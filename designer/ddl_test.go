package designer_test

import (
	"context"
	"strings"
	"testing"

	"repro/designer"
	"repro/internal/sqlparse"
)

func TestAdviceDDL(t *testing.T) {
	d := open(t)
	w := sdssWorkload(t, d, 12)
	advice, err := d.Advise(context.Background(), w, designer.AdviceOptions{Partitions: true, Interactions: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(advice.Indexes) == 0 {
		t.Skip("no indexes advised")
	}
	ddl := advice.DDL()
	if !strings.Contains(ddl, "CREATE INDEX") {
		t.Fatalf("DDL missing CREATE INDEX:\n%s", ddl)
	}
	// Every emitted statement must parse with our own DDL parser.
	for _, line := range strings.Split(ddl, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		if _, err := sqlparse.Parse(line); err != nil {
			t.Errorf("generated DDL does not parse: %q: %v", line, err)
		}
	}
	// Schedule ordering: CREATE INDEX lines follow the schedule.
	if advice.Schedule != nil {
		var idxLines []string
		for _, line := range strings.Split(ddl, "\n") {
			if strings.HasPrefix(line, "CREATE INDEX") {
				idxLines = append(idxLines, line)
			}
		}
		if len(idxLines) != len(advice.Schedule.Steps) {
			t.Fatalf("%d CREATE INDEX lines, %d schedule steps",
				len(idxLines), len(advice.Schedule.Steps))
		}
		for i, st := range advice.Schedule.Steps {
			wantCols := strings.Join(st.Index.Columns, ", ")
			if !strings.Contains(idxLines[i], wantCols) {
				t.Errorf("DDL line %d = %q, want columns %q (schedule order)",
					i, idxLines[i], wantCols)
			}
		}
	}
	// Vertical layouts emit fragment tables.
	if advice.Partitions != nil {
		for _, tr := range advice.Partitions.Tables {
			if tr.Vertical != "" && !strings.Contains(ddl, "__f0") {
				t.Errorf("DDL missing fragment tables:\n%s", ddl)
			}
		}
	}
}

// TestAdviceDDLPrintsEveryHorizontalLayout is the regression test for a
// horizontal range layout on a table without a vertical one: the DDL used
// to print a horizontal layout only inside a vertical-fragments block, so
// such a table was missing from it.
func TestAdviceDDLPrintsEveryHorizontalLayout(t *testing.T) {
	d := open(t)
	advice, err := d.Advise(context.Background(), sdssWorkload(t, d, 12), designer.AdviceOptions{Partitions: true})
	if err != nil {
		t.Fatal(err)
	}
	if advice.Partitions == nil {
		t.Fatal("no partition advice")
	}
	ddl := advice.DDL()
	horizontalOnly := 0
	for _, tr := range advice.Partitions.Tables {
		if tr.Horizontal == "" {
			continue
		}
		if tr.Vertical == "" {
			horizontalOnly++
		}
		if !strings.Contains(ddl, tr.Horizontal) {
			t.Errorf("DDL misses %s's horizontal layout %q:\n%s", tr.Table, tr.Horizontal, ddl)
		}
	}
	if horizontalOnly == 0 {
		t.Fatal("no table got a horizontal layout without a vertical one: the test checks nothing")
	}
}
