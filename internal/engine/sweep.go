package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// sweepChunkMax bounds how many jobs a worker claims per scheduling step.
const sweepChunkMax = 64

// sweepChunkSize picks the self-scheduling granularity: small enough that a
// sweep is cut into several chunks per worker (so a worker that drew cheap
// jobs comes back for more while another is still busy), large enough that a
// 10k-job sweep of tiny INUM costings pays for the shared atomic operation
// once per chunk instead of once per job.
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

// runChunked executes run(0..n-1) on the given number of goroutines using
// chunked self-scheduling: every worker claims the next unclaimed chunk from
// one shared atomic cursor until the chunk space is exhausted, so skewed job
// sizes balance themselves and a whole sweep makes about max(8·workers, n/64)
// claims. Results are written at each job's own index by run, so the schedule
// cannot influence what a sweep returns.
func runChunked(ctx context.Context, n, workers int, run func(i int)) {
	chunk := sweepChunkSize(n, workers)
	nChunks := (n + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1) - 1)
				if c >= nChunks {
					return
				}
				for i, last := c*chunk, min((c+1)*chunk, n); i < last; i++ {
					if ctx.Err() != nil {
						return
					}
					run(i)
				}
			}
		}()
	}
	wg.Wait()
}

// sweep runs fn(0..n-1) over a bounded worker pool and returns the
// first-index error (deterministic regardless of completion order: a failing
// job records itself under a mutex only the error path takes, and the lowest
// index wins). Work is handed out through chunked self-scheduling
// (runChunked), so per-job overhead is amortized over a chunk while skewed
// job sizes still balance across the pool.
//
// The context is checked before every job: a cancelled context stops
// workers from picking up new work, and the sweep returns ctx.Err() — the
// abort-mid-sweep guarantee every advisor inherits.
func (e *Engine) sweep(ctx context.Context, n int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var first struct {
		sync.Mutex
		idx int
		err error
	}
	run := func(i int) {
		if err := fn(i); err != nil {
			first.Lock()
			if first.err == nil || i < first.idx {
				first.idx, first.err = i, err
			}
			first.Unlock()
		}
	}
	if workers := e.workerCount(n); workers > 1 {
		runChunked(ctx, n, workers, run)
	} else {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			run(i)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return first.err
}

// SweepConfigs prices the whole workload under every configuration in
// parallel against the pinned generation, from the queries' INUM entries.
// costs[i] corresponds to cfgs[i]; a nil configuration means the pinned
// base. Results are identical to calling WorkloadCost serially per
// configuration.
func (v *View) SweepConfigs(ctx context.Context, w *workload.Workload, cfgs []*catalog.Configuration) ([]float64, error) {
	entries, err := v.entries(ctx, w)
	if err != nil {
		return nil, err
	}
	costs := make([]float64, len(cfgs))
	err = v.e.sweep(ctx, len(cfgs), func(i int) error {
		costs[i] = v.workloadCost(w, entries, v.s.resolve(cfgs[i]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return costs, nil
}

// Pricing prices sets of one structure list against one workload on a
// view: a set is positions in the list, and it prices as the configuration
// holding those structures and no layout — which is what the index
// advisors ask, tens of thousands of times a question. The structures are
// numbered once, so a costing is a read of the entries' pricing tables.
// A Pricing is safe for concurrent use and lives as long as its holder.
type Pricing struct {
	v       *View
	w       *workload.Workload
	entries []*inum.CachedQuery
	ords    inum.Ordinals
}

// Pricing builds the workload's missing entries on the sweep pool and
// numbers the structures; their list should hold one structure per key, as
// a configuration does.
func (v *View) Pricing(ctx context.Context, w *workload.Workload, structs []*catalog.Index) (*Pricing, error) {
	entries, err := v.entries(ctx, w)
	if err != nil {
		return nil, err
	}
	return &Pricing{v: v, w: w, entries: entries, ords: v.cache.Number(structs)}, nil
}

// QueryCost prices query i of the workload under the set.
func (p *Pricing) QueryCost(i int, set []int) float64 {
	return p.v.cache.CostOf(p.entries[i], p.ords, set)
}

// Cost sums the weighted query costs under the set, in query order.
func (p *Pricing) Cost(set []int) float64 {
	var total float64
	for i, q := range p.w.Queries {
		total += p.QueryCost(i, set) * q.Weight
	}
	return total
}

// Sweep prices the workload under every set in parallel: Cost of each.
func (p *Pricing) Sweep(ctx context.Context, sets [][]int) ([]float64, error) {
	return p.sweep(ctx, sets, p.Cost)
}

// SweepQuery prices query i under every set in parallel: QueryCost of each.
func (p *Pricing) SweepQuery(ctx context.Context, i int, sets [][]int) ([]float64, error) {
	return p.sweep(ctx, sets, func(set []int) float64 { return p.QueryCost(i, set) })
}

func (p *Pricing) sweep(ctx context.Context, sets [][]int, price func([]int) float64) ([]float64, error) {
	costs := make([]float64, len(sets))
	if err := p.v.e.sweep(ctx, len(sets), func(k int) error {
		costs[k] = price(sets[k])
		return nil
	}); err != nil {
		return nil, err
	}
	return costs, nil
}

// Evaluate costs every query under the pinned base and the hypothetical
// configuration with a full plan search under the backend's cost constants
// and returns the two weighted cost vectors, in workload order, with their
// totals: the numbers the demo's Scenario 1/2 panels display, each row
// labelled by the caller with the workload's query of the same index. A
// design session pinned at creation keeps evaluating against its
// generation (and its backend) even if the engine is reconfigured. Queries
// are priced in parallel, and results are deterministic and identical to a
// serial loop over FullCost. On a view derived with optimizer switches
// (WithOptions), every plan search runs under them.
func (v *View) Evaluate(ctx context.Context, w *workload.Workload, cfg *catalog.Configuration) (*whatif.Report, error) {
	newCfg := v.s.resolve(cfg)
	rep := &whatif.Report{Base: make([]float64, len(w.Queries)), New: make([]float64, len(w.Queries))}
	err := v.e.sweep(ctx, len(w.Queries), func(i int) error {
		q := w.Queries[i]
		bc, err := v.search(q.Stmt, v.s.base)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", q.ID, err)
		}
		nc, err := v.search(q.Stmt, newCfg)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", q.ID, err)
		}
		rep.Base[i], rep.New[i] = bc*q.Weight, nc*q.Weight
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.BaseTotal, rep.NewTotal = sum(rep.Base), sum(rep.New)
	return rep, nil
}

// sum adds costs in order: every total of a report is folded this way, so a
// delta's total is bit-identical to a cold one's.
func sum(costs []float64) float64 {
	var t float64
	for _, c := range costs {
		t += c
	}
	return t
}
