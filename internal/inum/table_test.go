package inum

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/storage"
	"repro/internal/workload"
)

// accessCosts is table ti of the query's access cost per order slot under
// the design: BestTableAccess's, order by order.
func accessCosts(c *Cache, q *CachedQuery, ti int, d optimizer.TableDesign) []float64 {
	var costs []float64
	for _, required := range q.orders[ti] {
		acc, _ := c.base.BestTableAccess(q.Stmt, q.Tables[ti], d, required)
		costs = append(costs, acc.Cost)
	}
	return costs
}

// setPricing is the pricing table's reference, the way every costing was
// priced before the tables: per table of the query, its access costs under
// the whole visible design — the structures on it that CanUse admits, under
// its layouts — plugged into the templates, then the cheapest rewrite by the
// visible aggregate views.
func setPricing(c *Cache, q *CachedQuery, cfg *catalog.Configuration) float64 {
	nt := len(q.Tables)
	access := make([][]float64, nt)
	var views []*catalog.Index
	for ti, table := range q.Tables {
		var visible []*catalog.Index
		for _, ix := range cfg.IndexesOn(table) {
			switch {
			case !optimizer.CanUse(q.Stmt, table, ix):
			case ix.Kind == catalog.KindAggView:
				views = append(views, ix)
			default:
				visible = append(visible, ix)
			}
		}
		design := optimizer.TableDesign{Indexes: visible, Vertical: cfg.VerticalOn(table), Horizontal: cfg.HorizontalOn(table)}
		access[ti] = accessCosts(c, q, ti, design)
	}
	var best float64
	for i, internal := range q.internals {
		total := internal
		for ti := range q.Tables {
			total += access[ti][q.slots[i*nt+ti]-q.slotAt[ti]]
		}
		if i == 0 || total < best {
			best = total
		}
	}
	if mv := c.base.BestMVRewriteCost(q.Stmt, views); len(views) > 0 && mv >= 0 && mv < best {
		best = mv
	}
	return best
}

// checkTable requires the table's costings of q under cfg — by the
// configuration, and by the ordinals of its structures with its layouts
// dropped — to equal set pricing by Float64bits.
func checkTable(t *testing.T, c *Cache, q *CachedQuery, cfg *catalog.Configuration, what string) {
	t.Helper()
	if got, _ := c.CostFor(q, cfg); math.Float64bits(got) != math.Float64bits(setPricing(c, q, cfg)) {
		t.Fatalf("%s: CostFor %v, set pricing %v", what, got, setPricing(c, q, cfg))
	}
	plain := &catalog.Configuration{Indexes: cfg.Indexes}
	got := c.CostOf(q, c.Number(cfg.Indexes), positions(len(cfg.Indexes)))
	if want := setPricing(c, q, plain); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: CostOf %v, set pricing without the layouts %v", what, got, want)
	}
}

// TestPricingTableMatchesSetPricing is the differential twin of the pricing
// table: over the five workload profiles, the tiny and small datasets and
// seeds 1 and 5, every statement priced under random designs — subsets of
// the generated candidates with projections and aggregate views plus
// two-column permutations, often with partition layouts — costs what set
// pricing costs, bit for bit, through one long-lived cache that numbers,
// tables and memoizes as it goes.
func TestPricingTableMatchesSetPricing(t *testing.T) {
	views, pairs := 0, 0
	for _, size := range []string{"tiny", "small"} {
		for _, seed := range []int64{1, 5} {
			rows, err := workload.SizeByName(size)
			if err != nil {
				t.Fatal(err)
			}
			store, err := workload.Generate(rows, seed)
			if err != nil {
				t.Fatal(err)
			}
			env := optimizer.NewEnv(store.Schema, store.Stats, nil)
			for pi, name := range workload.ProfileNames() {
				profile, err := workload.ProfileByName(name)
				if err != nil {
					t.Fatal(err)
				}
				w, err := profile.Generate(store.Schema, seed+int64(pi), 12)
				if err != nil {
					t.Fatal(err)
				}
				space := designSpace(t, store, w)
				cache := New(env)
				rng := rand.New(rand.NewSource(seed*10 + int64(pi)))
				for k := 0; k < 24; k++ {
					cfg := randomDesign(rng, store, space)
					for _, ix := range cfg.Indexes {
						if ix.Kind == catalog.KindAggView {
							views++
						}
					}
					for _, q := range w.Queries {
						cq, err := cache.Prepare("", q.Stmt, nil)
						if err != nil {
							t.Fatal(err)
						}
						checkTable(t, cache, cq, cfg, fmt.Sprintf("%s seed %d %s design %d, %s", size, seed, name, k, q.SQL))
						pairs++
					}
				}
			}
		}
	}
	t.Logf("%d (statement, design) pairs, %d aggregate views in the designs", pairs, views)
	if views == 0 {
		t.Error("no design holds an aggregate view")
	}
}

// fuzzData is the dataset the fuzz target prices against, generated once.
var fuzzData = sync.OnceValues(func() (*storage.Store, error) { return workload.Generate(workload.TinySize(), 41) })

// FuzzPricingTableMatchesSetPricing decodes bytes, one byte a number and
// missing bytes read as zero, into a statement — a workload profile (b%5),
// a seed (b) and one of its four statements (b%4) — a design — up to
// b%12 structures of the statement's design space, two bytes each — and
// layouts drawn from a seed (b): a vertical one half the time, a
// horizontal one a third. The statement's entry, complete or on demand
// (b%2), prices the design as set pricing does (checkTable). Corpus
// (testdata/fuzz/FuzzPricingTableMatchesSetPricing): an empty design, a
// join under several indexes and a vertical layout, an aggregate query
// under an aggregate view, and an on-demand entry with layouts on both
// sides.
func FuzzPricingTableMatchesSetPricing(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		store, err := fuzzData()
		if err != nil {
			t.Fatal(err)
		}
		names := workload.ProfileNames()
		profile, err := workload.ProfileByName(names[next()%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		w, err := profile.Generate(store.Schema, int64(next()), 4)
		if err != nil {
			t.Fatal(err)
		}
		q := w.Queries[next()%len(w.Queries)]
		space := designSpace(t, store, w)
		cfg := randomDesign(rand.New(rand.NewSource(int64(next()))), store, nil)
		for k := next() % 12; k > 0; k-- {
			cfg.Indexes = append(cfg.Indexes, space[(next()<<8|next())%len(space)])
		}
		cache := New(optimizer.NewEnv(store.Schema, store.Stats, nil))
		cq, err := cache.OnDemand(q.Stmt)
		if next()%2 == 0 {
			cq, err = cache.Prepare("", q.Stmt, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkTable(t, cache, cq, cfg, q.SQL)
	})
}
