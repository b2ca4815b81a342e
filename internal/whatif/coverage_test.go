package whatif_test

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func TestCandidateMaxWidthRespected(t *testing.T) {
	s, w := newSession(t)
	opts := whatif.DefaultCandidateOptions()
	opts.IncludeProjections, opts.IncludeAggViews = true, true
	for _, ix := range s.GenerateCandidates(w, opts) {
		// A composite prefix holds at most three columns; covering
		// candidates may add up to two extra payload columns.
		if ix.Kind == catalog.KindSecondary && len(ix.Columns) > 5 {
			t.Fatalf("candidate %s exceeds width cap", ix.Key())
		}
		if ix.Kind == catalog.KindProjection && len(ix.Columns) > 3 {
			t.Fatalf("projection %s exceeds key width cap", ix.Key())
		}
	}
}

func TestCandidatesOnlyForReferencedTables(t *testing.T) {
	s, _ := newSession(t)
	w, err := workload.NewWorkloadFrom(s.Env().Schema, 5, 4,
		[]workload.Template{*workload.TemplateByName("close_pairs")})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range s.GenerateCandidates(w, whatif.DefaultCandidateOptions()) {
		if !strings.EqualFold(ix.Table, "neighbors") {
			t.Fatalf("candidate %s on unreferenced table", ix.Key())
		}
	}
}
