package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/whatif"
)

// TestSweepChunkSize pins the self-scheduling granularity at its edges: one
// job per chunk for small sweeps, the cap for huge ones.
func TestSweepChunkSize(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{1, 1, 1},
		{7, 8, 1},       // n < workers*8: single-job chunks
		{64, 8, 1},      // exactly workers*8
		{128, 8, 2},     // two jobs per chunk
		{100000, 2, 64}, // capped at sweepChunkMax
		{64, 1, 8},
	}
	for _, tc := range cases {
		if got := sweepChunkSize(tc.n, tc.workers); got != tc.want {
			t.Errorf("sweepChunkSize(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// TestRunChunkedCoversEveryIndexOnce drives the chunked single-cursor
// scheduler across skewed (n, workers) shapes — fewer jobs than workers,
// one job, prime worker counts, uneven chunk deals — and asserts every
// index runs exactly once.
func TestRunChunkedCoversEveryIndexOnce(t *testing.T) {
	shapes := []struct{ n, workers int }{
		{1, 1}, {1, 8}, {3, 8}, {7, 2}, {16, 7}, {64, 7}, {129, 16}, {1000, 7},
	}
	for _, s := range shapes {
		hits := make([]atomic.Int32, s.n)
		runChunked(context.Background(), s.n, s.workers, func(i int) {
			hits[i].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times, want 1", s.n, s.workers, i, got)
			}
		}
	}
}

// TestSweepFirstIndexError asserts the sweep's error is the lowest-index
// one — deterministic regardless of pool width or completion order — when
// several jobs fail.
func TestSweepFirstIndexError(t *testing.T) {
	e := &Engine{}
	err3 := errors.New("job 3 failed")
	err7 := errors.New("job 7 failed")
	for _, workers := range []int{1, 2, 7, 16} {
		e.SetWorkers(workers)
		err := e.sweep(context.Background(), 10, func(i int) error {
			switch i {
			case 3:
				return err3
			case 7:
				return err7
			}
			return nil
		})
		if !errors.Is(err, err3) {
			t.Fatalf("workers=%d: sweep error = %v, want the index-3 error", workers, err)
		}
	}
}

// TestSweepCancellationMidSweep cancels the context from inside the first
// executed job and asserts the sweep returns ctx.Err() having started at
// most one job per worker after the cancellation point.
func TestSweepCancellationMidSweep(t *testing.T) {
	e := &Engine{}
	for _, workers := range []int{1, 2, 7} {
		e.SetWorkers(workers)
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := e.sweep(ctx, 256, func(i int) error {
			ran.Add(1)
			cancel()
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: sweep error = %v, want context.Canceled", workers, err)
		}
		// Each worker checks ctx before every job, so only jobs already in
		// flight at cancellation time can still run: at most one per worker.
		if got := ran.Load(); got > int64(workers) {
			t.Fatalf("workers=%d: %d jobs ran after cancellation, want at most %d", workers, got, workers)
		}
	}
}

// TestSweepPreCancelledContext asserts a cancelled context aborts the sweep
// before any job runs.
func TestSweepPreCancelledContext(t *testing.T) {
	e := &Engine{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		e.SetWorkers(workers)
		err := e.sweep(ctx, 8, func(i int) error {
			t.Errorf("workers=%d: job %d ran under a pre-cancelled context", workers, i)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: sweep error = %v, want context.Canceled", workers, err)
		}
	}
}

// TestSweepZeroJobs asserts the empty sweep is a no-op success.
func TestSweepZeroJobs(t *testing.T) {
	e := &Engine{}
	if err := e.sweep(context.Background(), 0, func(i int) error {
		t.Error("job ran in an empty sweep")
		return nil
	}); err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
}

// TestSweepWidthsBitIdentical runs the same sweep at worker counts
// {1, 2, 7, 16} and asserts every width returns exactly the serial costs —
// the schedule-independence half of the determinism contract.
func TestSweepWidthsBitIdentical(t *testing.T) {
	e, w, _ := newCountingEngine(t)
	v := e.Pin()
	cands := v.Session().GenerateCandidates(w, whatif.DefaultCandidateOptions())
	if len(cands) < 4 {
		t.Fatalf("want at least 4 candidates, got %d", len(cands))
	}
	cfgs := make([]*catalog.Configuration, 33) // odd count: uneven chunk deal
	for i := range cfgs {
		cfgs[i] = catalog.NewConfiguration()
		for j, ix := range cands {
			if (i+j)%3 == 0 {
				cfgs[i] = cfgs[i].WithIndex(ix)
			}
		}
	}
	e.SetWorkers(1)
	serial, err := v.SweepConfigs(context.Background(), w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, 16} {
		e.SetWorkers(workers)
		got, err := v.SweepConfigs(context.Background(), w, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d config %d: %v != serial %v", workers, i, got[i], serial[i])
			}
		}
	}
}
