package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// twinDesigns draws the configurations the view twin prices: the pinned
// base (nil), the empty and the whole design space, random subsets of the
// space — often with a vertical and a horizontal partition layout — and the
// base extended by each of the first candidates on its own, the shape greedy
// selection and the materialization schedule sweep.
func twinDesigns(rng *rand.Rand, store *storage.Store, space []*catalog.Index) []*catalog.Configuration {
	all := catalog.NewConfiguration()
	all.Indexes = space
	cfgs := []*catalog.Configuration{nil, catalog.NewConfiguration(), all}
	tables := store.Schema.Tables()
	for k := 0; k < 8; k++ {
		cfg := catalog.NewConfiguration()
		for _, ix := range space {
			if rng.Intn(4) == 0 {
				cfg.Indexes = append(cfg.Indexes, ix)
			}
		}
		if k%2 == 0 {
			table := tables[rng.Intn(len(tables))]
			pk := map[string]bool{}
			for _, c := range table.PrimaryKey {
				pk[strings.ToLower(c)] = true
			}
			frags := make([][]string, 2)
			for _, c := range table.Columns {
				if lc := strings.ToLower(c.Name); !pk[lc] {
					f := rng.Intn(len(frags))
					frags[f] = append(frags[f], lc)
				}
			}
			if len(frags[0]) > 0 && len(frags[1]) > 0 {
				cfg.SetVertical(&catalog.VerticalLayout{Table: strings.ToLower(table.Name), Fragments: frags})
			}
		}
		if k%3 == 0 {
			table := tables[rng.Intn(len(tables))]
			col := table.Columns[rng.Intn(len(table.Columns))]
			if cs := store.Stats.Table(table.Name).Column(col.Name); cs != nil && cs.Hist != nil {
				bounds := []catalog.Datum{cs.Hist.Quantile(1.0 / 3), cs.Hist.Quantile(2.0 / 3)}
				cfg.SetHorizontal(&catalog.HorizontalLayout{Table: strings.ToLower(table.Name), Column: strings.ToLower(col.Name), Bounds: bounds})
			}
		}
		cfgs = append(cfgs, cfg)
	}
	base := catalog.NewConfiguration().WithIndex(space[0])
	for _, ix := range space[1:min(len(space), 7)] {
		cfgs = append(cfgs, base.WithIndex(ix))
	}
	return cfgs
}

// TestEveryDoorReadsTheViewsEntries is the differential twin of the rule
// that a view, not its caller, decides which INUM entries it prices from.
// Over the five workload profiles, the tiny and small datasets and two
// seeds, on designs with partition layouts and aggregate views:
//   - a design view that was never prepared answers every door — QueryCost,
//     WorkloadCost, SweepConfigs, SweepQueryConfigs, each on a fresh view —
//     as the same door on a view prepared first, bit for bit, and its sweep
//     equals serial WorkloadCost calls;
//   - an online view asked through every door spends exactly one full
//     optimization on each distinct statement and prices it from one
//     template.
func TestEveryDoorReadsTheViewsEntries(t *testing.T) {
	ctx := context.Background()
	coarser, aggViews := 0, 0
	for _, size := range []string{"tiny", "small"} {
		for _, seed := range []int64{3, 8} {
			rows, err := workload.SizeByName(size)
			if err != nil {
				t.Fatal(err)
			}
			store, err := workload.Generate(rows, seed)
			if err != nil {
				t.Fatal(err)
			}
			e := New(store.Schema, store.Stats, nil)
			for pi, name := range workload.ProfileNames() {
				cell := fmt.Sprintf("%s seed %d %s", size, seed, name)
				profile, err := workload.ProfileByName(name)
				if err != nil {
					t.Fatal(err)
				}
				w, err := profile.Generate(store.Schema, seed+int64(pi), 12)
				if err != nil {
					t.Fatal(err)
				}
				opts := whatif.DefaultCandidateOptions()
				opts.IncludeProjections, opts.IncludeAggViews = true, true
				space := e.Pin().Session().GenerateCandidates(w, opts)
				if len(space) < 2 {
					t.Fatalf("%s: %d candidates, want at least 2", cell, len(space))
				}
				for _, ix := range space {
					if ix.Kind == catalog.KindAggView {
						aggViews++
					}
				}
				cfgs := twinDesigns(rand.New(rand.NewSource(seed*10+int64(pi))), store, space)

				prepared := e.Pin()
				if err := prepared.Prepare(ctx, w, nil); err != nil {
					t.Fatal(err)
				}
				want := make([][]float64, len(w.Queries))
				for i, q := range w.Queries {
					want[i] = make([]float64, len(cfgs))
					for k, cfg := range cfgs {
						if want[i][k], err = prepared.QueryCost(q, cfg); err != nil {
							t.Fatal(err)
						}
					}
				}
				wantTotal := make([]float64, len(cfgs))
				for k, cfg := range cfgs {
					if wantTotal[k], err = prepared.WorkloadCost(ctx, w, cfg); err != nil {
						t.Fatal(err)
					}
				}
				same := func(door string, got, want float64) {
					t.Helper()
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: %s on a cold design view %v, on a prepared one %v", cell, door, got, want)
					}
				}

				cold := e.Pin()
				for i, q := range w.Queries {
					for k, cfg := range cfgs {
						got, err := cold.QueryCost(q, cfg)
						if err != nil {
							t.Fatal(err)
						}
						same(fmt.Sprintf("QueryCost of %q under configuration %d", q.SQL, k), got, want[i][k])
					}
				}
				cold = e.Pin()
				for i, q := range w.Queries {
					got, err := cold.SweepQueryConfigs(ctx, q, cfgs)
					if err != nil {
						t.Fatal(err)
					}
					for k := range cfgs {
						same(fmt.Sprintf("SweepQueryConfigs of %q, configuration %d", q.SQL, k), got[k], want[i][k])
					}
				}
				cold = e.Pin()
				for k, cfg := range cfgs {
					got, err := cold.WorkloadCost(ctx, w, cfg)
					if err != nil {
						t.Fatal(err)
					}
					same(fmt.Sprintf("WorkloadCost under configuration %d", k), got, wantTotal[k])
				}
				swept, err := e.Pin().SweepConfigs(ctx, w, cfgs)
				if err != nil {
					t.Fatal(err)
				}
				for k := range cfgs {
					same(fmt.Sprintf("SweepConfigs, configuration %d", k), swept[k], wantTotal[k])
				}

				online := e.PinOnline()
				before := fullOpts(e)
				distinct := map[string]bool{}
				for i, q := range w.Queries {
					distinct[q.Stmt.Key()] = true
					for k, cfg := range cfgs {
						got, err := online.QueryCost(q, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if got != want[i][k] {
							coarser++
						}
					}
					if _, err := online.SweepQueryConfigs(ctx, q, cfgs); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := online.WorkloadCost(ctx, w, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := online.SweepConfigs(ctx, w, cfgs); err != nil {
					t.Fatal(err)
				}
				if built := fullOpts(e) - before; built != int64(len(distinct)) {
					t.Errorf("%s: an online view spent %d full optimizations on %d statements, want one each", cell, built, len(distinct))
				}
				cache := online.cache
				for _, q := range w.Queries {
					entry, err := cache.OnDemand(q.Stmt)
					if err != nil {
						t.Fatal(err)
					}
					if entry.TemplateCount() != 1 {
						t.Errorf("%s: an online view prices %q from %d templates, want 1", cell, q.SQL, entry.TemplateCount())
					}
				}
			}
		}
	}
	if coarser == 0 {
		t.Error("no online price differs from a design view's: the designs no longer tell an on-demand entry from a complete one")
	}
	if aggViews == 0 {
		t.Error("no aggregate view in any design space")
	}
}
