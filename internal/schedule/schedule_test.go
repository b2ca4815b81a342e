package schedule_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/schedule"
	"repro/internal/workload"
)

type fixture struct {
	v       *engine.View
	sched   *schedule.Scheduler
	w       *workload.Workload
	indexes []*catalog.Index
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 91)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(store.Schema, store.Stats, nil)
	v := eng.Pin()
	w, err := workload.NewWorkload(store.Schema, 92, 12)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(table string, cols ...string) *catalog.Index {
		ix, err := v.Session().HypotheticalIndex(table, cols...)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	indexes := []*catalog.Index{
		mk("photoobj", "objid"),
		mk("photoobj", "psfmag_r"),
		mk("photoobj", "psfmag_r", "type"),
		mk("photoobj", "ra"),
		mk("specobj", "bestobjid"),
		mk("neighbors", "objid"),
	}
	return &fixture{
		v: v, sched: schedule.New(eng),
		w: w, indexes: indexes,
	}
}

func TestGreedyScheduleBasics(t *testing.T) {
	f := newFixture(t)
	s, err := f.sched.GreedyView(context.Background(), f.v, f.w, f.indexes)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Steps) != len(f.indexes) {
		t.Fatalf("steps = %d, want %d", len(s.Steps), len(f.indexes))
	}
	// Workload cost must be non-increasing along the schedule.
	prev := s.BaseCost
	for i, st := range s.Steps {
		if st.CostAfter > prev*1.0001 {
			t.Fatalf("step %d: cost rose %f -> %f", i, prev, st.CostAfter)
		}
		prev = st.CostAfter
		if st.BuildCost <= 0 {
			t.Fatalf("step %d: non-positive build cost", i)
		}
	}
	if s.AUC <= 0 || s.TotalBuild <= 0 {
		t.Fatalf("degenerate schedule: %+v", s)
	}
}

// TestGreedyBeatsOrMatchesOblivious is experiment E9's core assertion: the
// interaction-aware order accrues at least as much early benefit (lower
// AUC) as the interaction-oblivious ranking.
func TestGreedyBeatsOrMatchesOblivious(t *testing.T) {
	f := newFixture(t)
	greedy, err := f.sched.GreedyView(context.Background(), f.v, f.w, f.indexes)
	if err != nil {
		t.Fatal(err)
	}
	obliv, err := f.sched.ObliviousView(context.Background(), f.v, f.w, f.indexes)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.AUC > obliv.AUC*1.001 {
		t.Fatalf("greedy AUC %f worse than oblivious %f", greedy.AUC, obliv.AUC)
	}
	// Both schedules end at the same final configuration and cost.
	if math.Abs(greedy.FinalCost()-obliv.FinalCost()) > greedy.FinalCost()*0.001 {
		t.Fatalf("final costs differ: %f vs %f", greedy.FinalCost(), obliv.FinalCost())
	}
	if math.Abs(greedy.TotalBuild-obliv.TotalBuild) > 1e-6 {
		t.Fatalf("total build differs: %f vs %f", greedy.TotalBuild, obliv.TotalBuild)
	}
}

// fixedOrder evaluates a build order as given — the reference any chosen
// order is compared against: each step's build runs while the workload pays
// the cost of the prefix already built.
func fixedOrder(t *testing.T, f *fixture, indexes []*catalog.Index) *schedule.Schedule {
	t.Helper()
	cfg := catalog.NewConfiguration()
	base, err := f.v.WorkloadCost(context.Background(), f.w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := &schedule.Schedule{BaseCost: base}
	prev := base
	for _, ix := range indexes {
		cfg = cfg.WithIndex(ix)
		c, err := f.v.WorkloadCost(context.Background(), f.w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		build := schedule.BuildCost(ix, f.v.Stats(), f.v.Params())
		out.Steps = append(out.Steps, schedule.Step{Index: ix, BuildCost: build, CostAfter: c})
		out.AUC += prev * build
		out.TotalBuild += build
		prev = c
	}
	return out
}

func TestFixedOrderWorstCase(t *testing.T) {
	f := newFixture(t)
	greedy, err := f.sched.GreedyView(context.Background(), f.v, f.w, f.indexes)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the greedy order: must be no better. Replayed in its own
	// order, the reference reproduces the greedy schedule's area exactly.
	own := make([]*catalog.Index, len(greedy.Steps))
	reversed := make([]*catalog.Index, len(greedy.Steps))
	for i, st := range greedy.Steps {
		own[i] = st.Index
		reversed[len(reversed)-1-i] = st.Index
	}
	if same := fixedOrder(t, f, own); same.AUC != greedy.AUC {
		t.Fatalf("greedy order replayed step by step: AUC %v, schedule says %v", same.AUC, greedy.AUC)
	}
	fixed := fixedOrder(t, f, reversed)
	if fixed.AUC < greedy.AUC*0.999 {
		t.Fatalf("reversed order AUC %f beats greedy %f", fixed.AUC, greedy.AUC)
	}
}

func TestBuildCostScalesWithSize(t *testing.T) {
	f := newFixture(t)
	st := f.sched
	_ = st
	small := f.indexes[4] // specobj index (small table)
	large := f.indexes[0] // photoobj index (large table)
	env, err := workload.Generate(workload.TinySize(), 91)
	if err != nil {
		t.Fatal(err)
	}
	params := optimizer.DefaultCostParams()
	if schedule.BuildCost(large, env.Stats, params) <= schedule.BuildCost(small, env.Stats, params) {
		t.Fatal("building an index on a larger table must cost more")
	}
}

func TestScheduleString(t *testing.T) {
	f := newFixture(t)
	s, err := f.sched.GreedyView(context.Background(), f.v, f.w, f.indexes[:2])
	if err != nil {
		t.Fatal(err)
	}
	out := s.String()
	if out == "" || len(s.Steps) != 2 {
		t.Fatalf("bad render: %q", out)
	}
}
