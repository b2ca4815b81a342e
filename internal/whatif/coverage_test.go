package whatif_test

import (
	"strings"
	"testing"

	"repro/internal/whatif"
	"repro/internal/workload"
)

func TestCandidateCoveringToggle(t *testing.T) {
	s, w := newSession(t)
	withCov := whatif.DefaultCandidateOptions()
	withCov.IncludeCovering = true
	noCov := withCov
	noCov.IncludeCovering = false

	a := s.GenerateCandidates(w, withCov)
	b := s.GenerateCandidates(w, noCov)
	// Covering candidates add wider composites; disabling them should not
	// produce more candidates.
	if len(b) > len(a) {
		t.Fatalf("covering off produced more candidates: %d > %d", len(b), len(a))
	}
}

func TestCandidateMaxWidthRespected(t *testing.T) {
	s, w := newSession(t)
	opts := whatif.DefaultCandidateOptions()
	opts.MaxWidth = 2
	for _, ix := range s.GenerateCandidates(w, opts) {
		// MaxWidth bounds the composite prefix; covering candidates may add
		// up to two extra payload columns.
		if len(ix.Columns) > opts.MaxWidth+2 {
			t.Fatalf("candidate %s exceeds width cap", ix.Key())
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
