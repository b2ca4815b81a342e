package designer_test

import (
	"strings"
	"testing"

	"repro/designer"
)

func TestExplainAnalyze(t *testing.T) {
	d := open(t)
	q, err := d.ParseQuery("q", "SELECT objid FROM photoobj WHERE type = 6")
	if err != nil {
		t.Fatal(err)
	}
	ea, err := d.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if ea.ActualRows == 0 {
		t.Fatal("no stars found")
	}
	if ea.EstimatedCost <= 0 {
		t.Fatal("degenerate estimate")
	}
	// MCV-backed estimate on the skewed type column should land within 2x
	// of the actual row count.
	ratio := ea.EstimatedRows / float64(ea.ActualRows)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("cardinality estimate off: est=%.0f actual=%d", ea.EstimatedRows, ea.ActualRows)
	}
	out := ea.String()
	if !strings.Contains(out, "estimated:") || !strings.Contains(out, "actual:") {
		t.Fatalf("render missing sections:\n%s", out)
	}
	// The full seq scan must have read the heap's pages.
	if ea.IO.SeqPages == 0 {
		t.Fatal("no I/O measured")
	}
}

func TestCompressWorkload(t *testing.T) {
	d := open(t)
	w, err := d.WorkloadFromSQL([]string{
		"SELECT objid FROM photoobj WHERE type = 6",
		"SELECT objid FROM photoobj WHERE type = 6",
		"SELECT objid FROM photoobj WHERE type = 3",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := designer.CompressWorkload(w)
	if c.Len() != 2 {
		t.Fatalf("compressed to %d queries, want 2", c.Len())
	}
	if c.Query(0).Weight() != 2 {
		t.Fatalf("merged weight = %f, want 2", c.Query(0).Weight())
	}
	if c.TotalWeight() != w.TotalWeight() {
		t.Fatalf("total weight changed: %f vs %f", c.TotalWeight(), w.TotalWeight())
	}
}
