package whatif_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func TestHypotheticalProjectionSizing(t *testing.T) {
	s, _ := newSession(t)
	proj, err := s.Hypothetical(catalog.KindProjection, "photoobj", []string{"run"}, []string{"objid", "ra"})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Kind != catalog.KindProjection || !proj.Hypothetical {
		t.Fatalf("bad projection: %+v", proj)
	}
	if proj.EstimatedPages <= 0 {
		t.Fatal("projection must be sized")
	}
	// A projection's leaves carry key + payload: wider than the bare key
	// index, and never wider than the covering index storing the same
	// columns as keys (the leaf widths coincide; page counts can tie).
	bare, err := s.HypotheticalIndex("photoobj", "run")
	if err != nil {
		t.Fatal(err)
	}
	covering, err := s.HypotheticalIndex("photoobj", "run", "objid", "ra")
	if err != nil {
		t.Fatal(err)
	}
	if proj.EstimatedPages <= bare.EstimatedPages {
		t.Errorf("projection (%d pages) should exceed its bare key index (%d pages)",
			proj.EstimatedPages, bare.EstimatedPages)
	}
	if proj.EstimatedPages > covering.EstimatedPages {
		t.Errorf("projection (%d pages) should not exceed the all-key covering index (%d pages)",
			proj.EstimatedPages, covering.EstimatedPages)
	}

	// Validation: overlapping key/INCLUDE, empty INCLUDE, unknown columns.
	if _, err := s.Hypothetical(catalog.KindProjection, "photoobj", []string{"run"}, []string{"run"}); err == nil {
		t.Error("key column duplicated in INCLUDE must fail")
	}
	if _, err := s.Hypothetical(catalog.KindProjection, "photoobj", []string{"run"}, nil); err == nil {
		t.Error("empty INCLUDE must fail")
	}
	if _, err := s.Hypothetical(catalog.KindProjection, "photoobj", []string{"nope"}, []string{"ra"}); err == nil {
		t.Error("unknown key column must fail")
	}
}

func TestHypotheticalAggViewSizing(t *testing.T) {
	s, _ := newSession(t)
	mv, err := s.Hypothetical(catalog.KindAggView, "photoobj", []string{"run", "camcol"}, []string{"COUNT(*)", "SUM(psfmag_r)"})
	if err != nil {
		t.Fatal(err)
	}
	if mv.Kind != catalog.KindAggView || !mv.Hypothetical {
		t.Fatalf("bad aggview: %+v", mv)
	}
	if mv.EstimatedRows <= 0 || mv.EstimatedPages <= 0 {
		t.Fatalf("aggview must carry group cardinality and pages: rows=%d pages=%d",
			mv.EstimatedRows, mv.EstimatedPages)
	}
	// Aggregate strings are stored canonically lower-cased.
	for _, a := range mv.Aggs {
		if a != "count(*)" && a != "sum(psfmag_r)" {
			t.Errorf("non-canonical stored aggregate %q", a)
		}
	}
	// Grouping on (run, camcol) collapses rows: the view must be smaller
	// than the table.
	store, err := workload.Generate(workload.TinySize(), 31)
	if err != nil {
		t.Fatal(err)
	}
	if rows := store.Stats.Table("photoobj").RowCount; mv.EstimatedRows >= rows {
		t.Errorf("view rows %d should undercut table rows %d", mv.EstimatedRows, rows)
	}

	if _, err := s.Hypothetical(catalog.KindAggView, "photoobj", nil, []string{"count(*)"}); err == nil {
		t.Error("empty group keys must fail")
	}
	if _, err := s.Hypothetical(catalog.KindAggView, "photoobj", []string{"run"}, nil); err == nil {
		t.Error("empty aggregate list must fail")
	}
}

// TestCandidateGenerationGatesStructures pins the opt-in contract the
// bit-identical guarantee rests on: default options enumerate only
// secondary indexes; the flags admit projections and aggregate views as
// additional candidates without disturbing the index candidates.
func TestCandidateGenerationGatesStructures(t *testing.T) {
	s, w := newSession(t)

	base := s.GenerateCandidates(w, whatif.DefaultCandidateOptions())
	for _, c := range base {
		if c.Kind != catalog.KindSecondary {
			t.Fatalf("default enumeration produced a %s: %s", c.Kind, c.Key())
		}
	}

	wide := whatif.DefaultCandidateOptions()
	wide.IncludeProjections = true
	wide.IncludeAggViews = true
	widened := s.GenerateCandidates(w, wide)
	if len(widened) < len(base) {
		t.Fatalf("widened space shrank: %d < %d", len(widened), len(base))
	}
	// Index candidates come first and are bit-identical to the base run.
	for i, c := range base {
		if widened[i].Key() != c.Key() {
			t.Fatalf("index candidate %d moved: %s vs %s", i, widened[i].Key(), c.Key())
		}
	}
	for _, c := range widened[len(base):] {
		if c.Kind == catalog.KindSecondary {
			t.Errorf("appended candidate is not a structure: %s", c.Key())
		}
		if c.EstimatedPages <= 0 {
			t.Errorf("unsized structure candidate: %s", c.Key())
		}
	}
}
