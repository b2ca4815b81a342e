package whatif_test

import (
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func newSession(t *testing.T) (*whatif.Session, *workload.Workload) {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 31)
	if err != nil {
		t.Fatal(err)
	}
	s := whatif.NewSessionFromEnv(optimizer.NewEnv(store.Schema, store.Stats, nil), nil)
	w, err := workload.NewWorkload(store.Schema, 32, 12)
	if err != nil {
		t.Fatal(err)
	}
	return s, w
}

func TestHypotheticalIndexSizing(t *testing.T) {
	s, _ := newSession(t)
	ix, err := s.HypotheticalIndex("photoobj", "objid")
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Hypothetical {
		t.Fatal("index must be hypothetical")
	}
	if ix.EstimatedPages <= 0 || ix.EstimatedHeight <= 0 {
		t.Fatalf("unsized hypothetical index: pages=%d height=%d",
			ix.EstimatedPages, ix.EstimatedHeight)
	}
	// Wider keys need more pages.
	wide, err := s.HypotheticalIndex("photoobj", "objid", "ra", "dec")
	if err != nil {
		t.Fatal(err)
	}
	if wide.EstimatedPages <= ix.EstimatedPages {
		t.Fatalf("wider index should be larger: %d vs %d",
			wide.EstimatedPages, ix.EstimatedPages)
	}
}

func TestHypotheticalIndexValidation(t *testing.T) {
	s, _ := newSession(t)
	if _, err := s.HypotheticalIndex("nosuch", "a"); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := s.HypotheticalIndex("photoobj"); err == nil {
		t.Error("empty column list should error")
	}
	if _, err := s.HypotheticalIndex("photoobj", "nope"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestJoinControlChangesPlans(t *testing.T) {
	s, _ := newSession(t)
	w, err := workload.NewWorkloadFrom(s.Env().Schema, 5, 1,
		[]workload.Template{*workload.TemplateByName("spec_join")})
	if err != nil {
		t.Fatal(err)
	}
	q := w.Queries[0]

	explain := func(env *optimizer.Env) string {
		plan, err := env.Optimize(q.Stmt)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Explain()
	}
	planDefault := explain(s.Env())
	planNL := explain(s.Env().WithOptions(optimizer.Options{DisableHashJoin: true, DisableMergeJoin: true}))
	if !strings.Contains(planNL, "Nested Loop") {
		t.Fatalf("forced nested loop missing:\n%s", planNL)
	}
	if planDefault == planNL && strings.Contains(planDefault, "Hash Join") {
		t.Fatal("join control had no effect")
	}
}

func TestGenerateCandidates(t *testing.T) {
	s, w := newSession(t)
	cands := s.GenerateCandidates(w, whatif.DefaultCandidateOptions())
	if len(cands) == 0 {
		t.Fatal("no candidates generated")
	}
	keys := map[string]bool{}
	for _, ix := range cands {
		if !ix.Hypothetical || ix.EstimatedPages <= 0 {
			t.Fatalf("candidate %s not a sized hypothetical", ix)
		}
		if keys[ix.Key()] {
			t.Fatalf("duplicate candidate %s", ix.Key())
		}
		keys[ix.Key()] = true
	}
	// The SDSS workload joins on these columns; they must be candidates.
	for _, want := range []string{"photoobj(objid)", "specobj(bestobjid)", "neighbors(objid)"} {
		if !keys[want] {
			t.Errorf("expected candidate %s; have %v", want, sortedKeys(keys))
		}
	}
}

func TestGenerateCandidatesRespectsCap(t *testing.T) {
	s, w := newSession(t)
	opts := whatif.DefaultCandidateOptions()
	opts.MaxPerTable = 2
	cands := s.GenerateCandidates(w, opts)
	perTable := map[string]int{}
	for _, ix := range cands {
		perTable[strings.ToLower(ix.Table)]++
	}
	for table, n := range perTable {
		if n > 2 {
			t.Errorf("table %s has %d candidates, cap 2", table, n)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
