// Package greedy implements the DTA-style greedy index advisor that
// commercial tools use (paper §1/§2): repeatedly add the candidate index
// with the best benefit per page until the storage budget is exhausted or
// no candidate helps. It is the comparison baseline for CoPhy (experiment
// E7) — greedy prunes the search space and can land in local optima, which
// is exactly the deficiency the paper calls out.
//
// The package also provides exhaustive enumeration for small instances, the
// ground truth used to verify CoPhy's optimality claims in tests.
//
// All what-if pricing flows through the pinned engine view the caller hands
// in; each greedy step evaluates the surviving candidates with one parallel
// sweep.
package greedy

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Result is the greedy recommendation.
type Result struct {
	Indexes      []*catalog.Index
	Objective    float64 // workload cost under Indexes
	BaselineCost float64 // workload cost with no indexes
}

// Improvement returns the relative cost reduction vs. no indexes.
func (r *Result) Improvement() float64 {
	if r.BaselineCost == 0 {
		return 0
	}
	return (r.BaselineCost - r.Objective) / r.BaselineCost
}

// Advise runs the greedy loop over a candidate set against one pinned
// engine generation, keeping the selected indexes' footprint within
// budgetPages (0 = unlimited). Candidates are ranked by benefit per page,
// the usual knapsack heuristic (an unsized candidate by its raw benefit).
// Every iteration prices the eligible candidates against the current
// configuration in one parallel sweep of candidate sets; a cancelled context
// aborts mid-sweep and returns ctx.Err(). The candidates hold one structure
// per key, as a configuration does.
func Advise(ctx context.Context, v *engine.View, candidates []*catalog.Index, w *workload.Workload, budgetPages int64) (*Result, error) {
	p, err := v.Pricing(ctx, w, candidates)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	cur := p.Cost(nil)
	res.BaselineCost = cur
	chosen := make([]bool, len(candidates))
	var set []int
	var usedPages int64
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Eligible candidates this round, in stable ordinal order.
		var elig []int
		var trials [][]int
		for i, ix := range candidates {
			if chosen[i] || budgetPages > 0 && usedPages+ix.EstimatedPages > budgetPages {
				continue
			}
			elig = append(elig, i)
			trials = append(trials, append(set[:len(set):len(set)], i))
		}
		if len(elig) == 0 {
			break
		}
		costs, err := p.Sweep(ctx, trials)
		if err != nil {
			return nil, err
		}

		bestIdx := -1
		bestScore := 0.0
		bestCost := cur
		for k, i := range elig {
			ix := candidates[i]
			benefit := cur - costs[k]
			if benefit <= 1e-9 {
				continue
			}
			score := benefit
			if ix.EstimatedPages > 0 {
				score = benefit / float64(ix.EstimatedPages)
			}
			if score > bestScore {
				bestScore = score
				bestIdx = i
				bestCost = costs[k]
			}
		}
		if bestIdx < 0 {
			break
		}
		ix := candidates[bestIdx]
		set = append(set, bestIdx)
		usedPages += ix.EstimatedPages
		cur = bestCost
		chosen[bestIdx] = true
		res.Indexes = append(res.Indexes, ix)
	}
	res.Objective = cur
	sort.Slice(res.Indexes, func(i, j int) bool { return res.Indexes[i].Key() < res.Indexes[j].Key() })
	return res, nil
}

// MaxExhaustiveCandidates is the most candidates Exhaustive enumerates:
// 2^14 = 16,384 subsets, each a sweep of the workload.
const MaxExhaustiveCandidates = 14

// Exhaustive enumerates every candidate subset within budget and returns
// the true optimum. Exponential, so it refuses more than
// MaxExhaustiveCandidates candidates (the E7 ground truth and the
// autopilot's regret oracle stay below it). Subsets are priced as sets of
// candidate ordinals in bounded parallel batches, so peak memory stays fixed
// instead of holding all 2^n sets. The candidates hold one structure per
// key, as a configuration does.
func Exhaustive(ctx context.Context, v *engine.View, candidates []*catalog.Index, w *workload.Workload, budgetPages int64) (*Result, error) {
	n := len(candidates)
	if n > MaxExhaustiveCandidates {
		return nil, fmt.Errorf("greedy: exhaustive search over %d candidates: at most %d", n, MaxExhaustiveCandidates)
	}
	p, err := v.Pricing(ctx, w, candidates)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	const batchSize = 4096

	best := math.Inf(1)
	bestMask := 0
	masks := make([]int, 0, batchSize)
	sets := make([][]int, 0, batchSize)
	flush := func() error {
		if len(sets) == 0 {
			return nil
		}
		costs, err := p.Sweep(ctx, sets)
		if err != nil {
			return err
		}
		for k, mask := range masks {
			if mask == 0 {
				res.BaselineCost = costs[k]
			}
			if costs[k] < best {
				best = costs[k]
				bestMask = mask
			}
		}
		masks = masks[:0]
		sets = sets[:0]
		return nil
	}
	for mask := 0; mask < 1<<n; mask++ {
		var set []int
		var pages int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, i)
				pages += candidates[i].EstimatedPages
			}
		}
		if budgetPages > 0 && pages > budgetPages {
			continue
		}
		masks = append(masks, mask)
		sets = append(sets, set)
		if len(sets) >= batchSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}

	res.Objective = best
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			res.Indexes = append(res.Indexes, candidates[i])
		}
	}
	sort.Slice(res.Indexes, func(i, j int) bool { return res.Indexes[i].Key() < res.Indexes[j].Key() })
	return res, nil
}
