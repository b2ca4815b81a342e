package designer_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/designer"
)

// earlierQuestions are questions a designer may have answered about a
// workload before it is asked to advise on it. Each one prepares the
// workload's statements in the engine's cost cache on its own way in.
var earlierQuestions = []struct {
	name string
	ask  func(ctx context.Context, d *designer.Designer, w *designer.Workload) error
}{
	{"AdvisePartitions", func(ctx context.Context, d *designer.Designer, w *designer.Workload) error {
		_, err := d.AdvisePartitions(ctx, w, designer.PartitionOptions{})
		return err
	}},
	{"Advise with the interaction graph and the schedule", func(ctx context.Context, d *designer.Designer, w *designer.Workload) error {
		_, err := d.Advise(ctx, w, designer.AdviceOptions{Interactions: true})
		return err
	}},
	{"a widened Advise", func(ctx context.Context, d *designer.Designer, w *designer.Workload) error {
		_, err := d.Advise(ctx, w, designer.AdviceOptions{CandidateOptions: designer.CandidateOptions{IncludeProjections: true, IncludeAggViews: true}})
		return err
	}},
}

// joinColumns are join endpoints of the SDSS templates: an index on one
// delivers an order a plan's internals can exploit.
var joinColumns = [][2]string{{"specobj", "bestobjid"}, {"neighbors", "objid"}}

// adviceDiff names the first reading in which two advices differ, comparing
// costs bit for bit; "" when they are the same answer.
func adviceDiff(got, want *designer.Advice) string {
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"objective", got.Solver.Objective, want.Solver.Objective},
		{"base total", got.Report.BaseTotal, want.Report.BaseTotal},
		{"new total", got.Report.NewTotal, want.Report.NewTotal},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s %v, a fresh designer's %v", f.name, f.got, f.want)
		}
	}
	if len(got.Indexes) != len(want.Indexes) {
		return fmt.Sprintf("%d indexes, a fresh designer's %d", len(got.Indexes), len(want.Indexes))
	}
	for i := range got.Indexes {
		if got.Indexes[i].Key() != want.Indexes[i].Key() {
			return fmt.Sprintf("index %d is %s, a fresh designer's %s", i, got.Indexes[i].Key(), want.Indexes[i].Key())
		}
	}
	if got.DDL() != want.DDL() {
		return "DDL differs from a fresh designer's"
	}
	return ""
}

// TestAdviceDoesNotDependOnEarlierQuestions asks a designer one earlier
// question about a workload and then for full advice on it, and requires
// the advice a fresh designer gives: an answer is a function of the
// generation it is priced on, not of what was asked on that generation
// before. The same history once through a design session. (While the cost
// cache seeded a statement's plan templates from its first preparer's
// candidates, the partition, schedule and interaction histories moved the
// objective under every workload seed tried, 1 to 12; four seeds keep the
// table, which opens a designer per history, under ten seconds.)
func TestAdviceDoesNotDependOnEarlierQuestions(t *testing.T) {
	ctx := context.Background()
	histories, differing := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		// Every history starts on a designer of its own, with the workload
		// generated there.
		start := func() (*designer.Designer, *designer.Workload) {
			d, err := designer.OpenSDSS("tiny", 1)
			if err != nil {
				t.Fatal(err)
			}
			w, err := d.GenerateWorkload(seed, 24)
			if err != nil {
				t.Fatal(err)
			}
			return d, w
		}
		for _, budget := range []int64{0, 300} {
			opts := designer.AdviceOptions{StorageBudgetPages: budget, Partitions: true, Interactions: true}
			fresh, w := start()
			want, err := fresh.Advise(ctx, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			check := func(history string, got *designer.Advice, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				histories++
				if diff := adviceDiff(got, want); diff != "" {
					differing++
					t.Errorf("workload seed %d, budget %d, after %s: %s", seed, budget, history, diff)
				}
			}
			for _, q := range earlierQuestions {
				d, w := start()
				if err := q.ask(ctx, d, w); err != nil {
					t.Fatal(err)
				}
				got, err := d.Advise(ctx, w, opts)
				check(q.name, got, err)
			}

			d, w := start()
			s := d.NewDesignSession()
			for _, tc := range joinColumns {
				if _, err := s.AddIndex(tc[0], tc[1]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.InteractionGraph(ctx, w); err != nil {
				t.Fatal(err)
			}
			got, err := s.Advise(ctx, w, opts)
			check("a session's InteractionGraph", got, err)
		}
	}
	if differing > 0 {
		t.Errorf("%d of %d histories change the advice", differing, histories)
	}
}
