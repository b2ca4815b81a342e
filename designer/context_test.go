package designer_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/designer"
)

// TestCoPhyCancellation is the regression test for context plumbing: a
// cancelled or deadlined context must abort a large Advise — candidate
// pricing sweeps and CoPhy's branch-and-bound — promptly, returning
// ctx.Err(), instead of running to completion and reporting the context
// error after the fact.
func TestCoPhyCancellation(t *testing.T) {
	mk := func(t *testing.T) (*designer.Designer, *designer.Workload, designer.AdviceOptions) {
		t.Helper()
		d, err := designer.OpenSDSS("small", 77)
		if err != nil {
			t.Fatal(err)
		}
		w, err := d.GenerateWorkload(78, 192)
		if err != nil {
			t.Fatal(err)
		}
		// A large workload under a tight storage budget forces real
		// knapsack branching: tens of branch-and-bound nodes, with most of
		// the wall-clock inside the solver rather than atom pricing.
		return d, w, designer.AdviceOptions{StorageBudgetPages: 200}
	}

	// Probe: how long the full run takes on a cold designer. This anchors
	// the promptness bound below, so the test scales with the machine.
	dProbe, wProbe, opts := mk(t)
	start := time.Now()
	if _, err := dProbe.Advise(context.Background(), wProbe, opts); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	t.Logf("full uncancelled run: %v", full)

	// Deadlined: a fresh, equally cold designer given a small fraction of
	// that time must abort mid-run with ctx.Err() — not run to completion.
	dDead, wDead, opts := mk(t)
	deadline := full / 10
	if deadline < 5*time.Millisecond {
		deadline = 5 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start = time.Now()
	_, err := dDead.Advise(ctx, wDead, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined advise returned %v, want context.DeadlineExceeded", err)
	}
	// Promptness: well under the full run, with slack for one in-flight
	// sweep job to notice the cancellation.
	if bound := full/2 + 250*time.Millisecond; elapsed > bound {
		t.Fatalf("deadlined run took %v, want < %v (full run %v)", elapsed, bound, full)
	}

	// Pre-cancelled: aborts before any pricing at all.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	start = time.Now()
	if _, err := dDead.Advise(cctx, wDead, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled advise returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled advise took %v", elapsed)
	}
}

// TestCancellationAcrossEntryPoints spot-checks that every long-running
// facade entry point honors a pre-cancelled context.
func TestCancellationAcrossEntryPoints(t *testing.T) {
	d := open(t)
	w := sdssWorkload(t, d, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := d.Advise(ctx, w, designer.AdviceOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Advise: %v", err)
	}
	if _, err := d.AdvisePartitions(ctx, w, designer.DefaultPartitionOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("AdvisePartitions: %v", err)
	}
	if _, err := d.Evaluate(ctx, w, designer.NewConfiguration()); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate: %v", err)
	}
	ix, err := d.HypotheticalIndex("photoobj", "ra")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Materialize(ctx, []designer.Index{ix}); !errors.Is(err, context.Canceled) {
		t.Errorf("Materialize: %v", err)
	}
	tuner := d.NewOnlineTuner(designer.DefaultTunerOptions())
	defer tuner.Close()
	qs, err := d.DriftStream(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.ObserveAll(ctx, qs); !errors.Is(err, context.Canceled) {
		t.Errorf("Tuner.ObserveAll: %v", err)
	}
	s := d.NewDesignSession()
	if _, err := s.Evaluate(ctx, w); !errors.Is(err, context.Canceled) {
		t.Errorf("DesignSession.Evaluate: %v", err)
	}
	if _, err := s.Advise(ctx, w, designer.AdviceOptions{Interactions: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("DesignSession.Advise: %v", err)
	}
}
