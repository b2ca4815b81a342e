package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// sweepChunkMax bounds how many jobs a worker claims per scheduling step.
const sweepChunkMax = 64

// sweepChunkSize picks the self-scheduling granularity: small enough that
// every worker is dealt several chunks (so stealing can rebalance skewed
// job sizes), large enough that a 10k-job sweep of tiny INUM costings pays
// for a shared atomic operation once per chunk instead of once per job.
func sweepChunkSize(n, workers int) int {
	c := n / (workers * 8)
	if c < 1 {
		return 1
	}
	if c > sweepChunkMax {
		return sweepChunkMax
	}
	return c
}

// chunkQueue is one worker's deal of the chunk space: a half-open range of
// chunk indexes [next, hi) claimed one chunk at a time through the atomic
// cursor. Thieves claim from a victim's queue with the same fetch-add the
// owner uses, so ownership transfer needs no extra synchronization; the
// cursor may overshoot hi, which every claimer treats as "queue empty".
type chunkQueue struct {
	next atomic.Int64
	hi   int64
}

// runChunked executes run(0..n-1) on the given number of goroutines using
// chunked self-scheduling with work-stealing: the chunk space is dealt
// evenly into per-worker queues, each worker drains its own queue first
// (contention-free in the balanced case), then steals remaining chunks from
// the other queues in round-robin order. Results are written at each job's
// own index by run, so the schedule cannot influence what a sweep returns.
func runChunked(ctx context.Context, n, workers int, run func(i int)) {
	chunk := sweepChunkSize(n, workers)
	nChunks := (n + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}
	queues := make([]chunkQueue, workers)
	per, extra := nChunks/workers, nChunks%workers
	lo := 0
	for w := range queues {
		size := per
		if w < extra {
			size++
		}
		queues[w].next.Store(int64(lo))
		queues[w].hi = int64(lo + size)
		lo += size
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for pass := 0; pass < workers; pass++ {
				q := &queues[(self+pass)%workers]
				for {
					c := q.next.Add(1) - 1
					if c >= q.hi {
						break
					}
					first := int(c) * chunk
					last := first + chunk
					if last > n {
						last = n
					}
					for i := first; i < last; i++ {
						if ctx.Err() != nil {
							return
						}
						run(i)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// sweep runs fn(0..n-1) over a bounded worker pool and returns the
// first-index error (deterministic regardless of completion order). Work is
// handed out through chunked self-scheduling with per-worker queues and
// work-stealing (runChunked), so per-job overhead is amortized over a chunk
// while skewed job sizes still balance across the pool.
//
// The context is checked before every job: a cancelled context stops
// workers from picking up new work, and the sweep returns ctx.Err() — the
// abort-mid-sweep guarantee every advisor inherits.
func (e *Engine) sweep(ctx context.Context, n int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	errs := make([]error, n)
	workers := e.workerCount(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			errs[i] = fn(i)
		}
	} else {
		runChunked(ctx, n, workers, func(i int) { errs[i] = fn(i) })
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SweepConfigs prices the whole workload under every configuration in
// parallel against the pinned generation, through the backend's cached
// path. costs[i] corresponds to cfgs[i]; a nil configuration means the
// pinned base. Results are identical to calling WorkloadCost serially per
// configuration.
func (v *View) SweepConfigs(ctx context.Context, w *workload.Workload, cfgs []*catalog.Configuration) ([]float64, error) {
	if err := v.prepareAll(ctx, w); err != nil {
		return nil, err
	}
	price, err := v.s.pricer(w)
	if err != nil {
		return nil, err
	}
	costs := make([]float64, len(cfgs))
	err = v.e.sweep(ctx, len(cfgs), func(i int) error {
		c, err := workloadCost(w, price(v.s.resolve(cfgs[i])))
		if err != nil {
			return err
		}
		costs[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return costs, nil
}

// SweepCandidates prices, in parallel, the workload under base extended by
// each candidate index on its own: costs[i] is the workload cost under
// base ∪ {cands[i]}, against the pinned generation. This is the inner loop
// of greedy selection and materialization scheduling.
func (v *View) SweepCandidates(ctx context.Context, w *workload.Workload, base *catalog.Configuration, cands []*catalog.Index) ([]float64, error) {
	if err := v.prepareAll(ctx, w); err != nil {
		return nil, err
	}
	price, err := v.s.pricer(w)
	if err != nil {
		return nil, err
	}
	base = v.s.resolve(base)
	costs := make([]float64, len(cands))
	err = v.e.sweep(ctx, len(cands), func(i int) error {
		c, err := workloadCost(w, price(base.WithIndex(cands[i])))
		if err != nil {
			return err
		}
		costs[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return costs, nil
}

// SweepQueryConfigs prices one query under many configurations in parallel
// against the pinned generation — CoPhy's atom pricing. costs[i]
// corresponds to cfgs[i].
func (v *View) SweepQueryConfigs(ctx context.Context, q workload.Query, cfgs []*catalog.Configuration) ([]float64, error) {
	price, err := v.s.backend.Pricer([]workload.Query{q})
	if err != nil {
		return nil, err
	}
	costs := make([]float64, len(cfgs))
	err = v.e.sweep(ctx, len(cfgs), func(i int) error {
		c, err := price(v.s.resolve(cfgs[i]))(0)
		if err != nil {
			return err
		}
		costs[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return costs, nil
}

// prepareAll primes backend entries for every workload query in parallel
// (nil candidate guidance; callers wanting candidate-guided templates call
// Prepare first). A workload already prepared against this generation — by
// Prepare or by an earlier sweep — is skipped wholesale: the prepared-set
// fast path turns the per-sweep prepare cost from |W| backend calls into
// one fingerprint lookup.
func (v *View) prepareAll(ctx context.Context, w *workload.Workload) error {
	fp := w.Fingerprint()
	if v.s.preparedFor(fp) {
		return nil
	}
	if err := v.e.sweep(ctx, len(w.Queries), func(i int) error {
		q := w.Queries[i]
		return v.s.backend.Prepare(q.ID, q.Stmt, nil)
	}); err != nil {
		return err
	}
	v.s.markPrepared(fp)
	return nil
}

// Evaluate costs every query under the pinned base and the hypothetical
// configuration with the backend's reference model (the full optimizer for
// analytical backends, the trace for replay) and returns the benefit report
// the demo's Scenario 1/2 panels display. A design session pinned at
// creation keeps evaluating against its generation (and its backend) even
// if the engine is reconfigured. Queries are priced in parallel, and
// results are deterministic and identical to a serial loop over FullCost.
func (v *View) Evaluate(ctx context.Context, w *workload.Workload, cfg *catalog.Configuration) (*whatif.Report, error) {
	return v.evaluate(ctx, w, cfg, v.s.backend.StmtCost)
}

// EvaluateSteered is Evaluate with per-session join steering: every query is
// planned by a throwaway what-if session carrying the optimizer switches
// (SessionWith), on the same worker pool and with the same first-index error
// and cancellation behaviour as Evaluate. The backend's cost constants still
// apply for analytical backends; a replay-backed view falls back to native
// plan costing under join steering.
func (v *View) EvaluateSteered(ctx context.Context, w *workload.Workload, cfg *catalog.Configuration, opts optimizer.Options) (*whatif.Report, error) {
	return v.evaluate(ctx, w, cfg, v.SessionWith(opts).Cost)
}

// evaluate prices every query under the pinned base and under cfg with the
// given statement-costing function and folds the benefit report.
func (v *View) evaluate(ctx context.Context, w *workload.Workload, cfg *catalog.Configuration,
	cost func(*sqlparse.SelectStmt, *catalog.Configuration) (float64, error)) (*whatif.Report, error) {
	newCfg := v.s.resolve(cfg)
	queries := make([]whatif.QueryBenefit, len(w.Queries))
	err := v.e.sweep(ctx, len(w.Queries), func(i int) error {
		q := w.Queries[i]
		bc, err := cost(q.Stmt, v.s.base)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", q.ID, err)
		}
		nc, err := cost(q.Stmt, newCfg)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", q.ID, err)
		}
		queries[i] = whatif.QueryBenefit{
			ID: q.ID, SQL: q.SQL,
			BaseCost: bc * q.Weight, NewCost: nc * q.Weight,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &whatif.Report{Queries: queries}
	for _, qb := range rep.Queries {
		rep.BaseTotal += qb.BaseCost
		rep.NewTotal += qb.NewCost
	}
	return rep, nil
}
