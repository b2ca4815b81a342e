package inum_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

type fixture struct {
	env   *optimizer.Env
	cache *inum.Cache
	w     *workload.Workload
	cands []*catalog.Index
}

func newFixture(t *testing.T, nQueries int) *fixture {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, nil)
	w, err := workload.NewWorkload(store.Schema, 42, nQueries)
	if err != nil {
		t.Fatal(err)
	}
	sess := whatif.NewSessionFromEnv(env, nil)
	cands := sess.GenerateCandidates(w, whatif.DefaultCandidateOptions())
	return &fixture{env: env, cache: inum.New(env), w: w, cands: cands}
}

func TestPrepareBuildsTemplates(t *testing.T) {
	f := newFixture(t, 6)
	for _, q := range f.w.Queries {
		cq, err := f.cache.Prepare(q.ID, q.Stmt, f.cands)
		if err != nil {
			t.Fatal(err)
		}
		if cq.TemplateCount() == 0 {
			t.Fatalf("%s: no templates", q.ID)
		}
		if cq.PrepCost() == 0 {
			t.Fatalf("%s: prepare should run the optimizer", q.ID)
		}
	}
}

func TestPrepareIdempotent(t *testing.T) {
	f := newFixture(t, 1)
	q := f.w.Queries[0]
	a, err := f.cache.Prepare(q.ID, q.Stmt, f.cands)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.cache.Prepare(q.ID, q.Stmt, f.cands)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Prepare must return the cached entry")
	}
}

// randomConfig draws a random subset of candidates.
func randomConfig(rng *rand.Rand, cands []*catalog.Index) *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	for _, ix := range cands {
		if rng.Intn(3) == 0 {
			cfg = cfg.WithIndex(ix)
		}
	}
	return cfg
}

// TestCostForTracksFullOptimizer verifies INUM's core property: cached
// costing approximates full optimization across configurations. INUM is an
// approximation (parameterized nested-loop plans are not representable as
// internal+access sums), so we check aggregate accuracy and that the
// relative ranking of configurations is preserved.
func TestCostForTracksFullOptimizer(t *testing.T) {
	f := newFixture(t, 8)
	rng := rand.New(rand.NewSource(7))

	for _, q := range f.w.Queries {
		cq, err := f.cache.Prepare(q.ID, q.Stmt, f.cands)
		if err != nil {
			t.Fatal(err)
		}
		type pair struct{ inumC, fullC float64 }
		var pairs []pair
		withinTol := 0
		const trials = 12
		for i := 0; i < trials; i++ {
			cfg := randomConfig(rng, f.cands)
			ic, err := f.cache.CostFor(cq, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fc, err := f.env.WithConfig(cfg).Cost(q.Stmt)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair{ic, fc})
			relErr := math.Abs(ic-fc) / math.Max(fc, 1e-9)
			if relErr < 0.35 {
				withinTol++
			}
		}
		if withinTol < trials*2/3 {
			t.Errorf("%s: only %d/%d configurations within 35%% of full optimizer",
				q.ID, withinTol, trials)
		}
		// Ranking: the cheapest configuration by INUM should be near-cheapest
		// by the full optimizer.
		bestINUM, bestFull := 0, 0
		for i, p := range pairs {
			if p.inumC < pairs[bestINUM].inumC {
				bestINUM = i
			}
			if p.fullC < pairs[bestFull].fullC {
				bestFull = i
			}
		}
		if pairs[bestINUM].fullC > pairs[bestFull].fullC*1.5 {
			t.Errorf("%s: INUM's best config is %.2f vs true best %.2f",
				q.ID, pairs[bestINUM].fullC, pairs[bestFull].fullC)
		}
	}
}

func TestCostForNeverBelowTheoreticalFloor(t *testing.T) {
	f := newFixture(t, 6)
	rng := rand.New(rand.NewSource(8))
	for _, q := range f.w.Queries {
		cq, err := f.cache.Prepare(q.ID, q.Stmt, f.cands)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			cfg := randomConfig(rng, f.cands)
			c, err := f.cache.CostFor(cq, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("%s: degenerate cost %f", q.ID, c)
			}
		}
	}
}

func TestMoreIndexesNeverHurtINUM(t *testing.T) {
	// Adding an index can only add access options; INUM cost must be
	// monotonically non-increasing in the index set.
	f := newFixture(t, 6)
	for _, q := range f.w.Queries {
		cq, err := f.cache.Prepare(q.ID, q.Stmt, f.cands)
		if err != nil {
			t.Fatal(err)
		}
		cfg := catalog.NewConfiguration()
		prev, err := f.cache.CostFor(cq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range f.cands {
			cfg = cfg.WithIndex(ix)
			c, err := f.cache.CostFor(cq, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c > prev*1.0001 {
				t.Fatalf("%s: cost rose from %f to %f after adding %s",
					q.ID, prev, c, ix.Key())
			}
			prev = c
		}
	}
}

func TestPartitionAwareCosting(t *testing.T) {
	f := newFixture(t, 0)
	// A narrow single-table query.
	w, err := workload.NewWorkloadFrom(f.env.Schema, 9, 1,
		[]workload.Template{*workload.TemplateByName("cone_search")})
	if err != nil {
		t.Fatal(err)
	}
	q := w.Queries[0]
	cq, err := f.cache.Prepare(q.ID, q.Stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := f.cache.CostFor(cq, catalog.NewConfiguration())
	if err != nil {
		t.Fatal(err)
	}
	// Vertical layout putting (ra, dec) in a small fragment.
	cfg := catalog.NewConfiguration()
	var rest []string
	for _, c := range f.env.Schema.Table("photoobj").Columns {
		lc := strings.ToLower(c.Name)
		if lc != "ra" && lc != "dec" && lc != "objid" {
			rest = append(rest, lc)
		}
	}
	cfg.SetVertical(&catalog.VerticalLayout{
		Table: "photoobj", Fragments: [][]string{{"ra", "dec"}, rest},
	})
	part, err := f.cache.CostFor(cq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if part >= base {
		t.Fatalf("partitioned cost %f should beat base %f", part, base)
	}
}

// TestTelemetryCounters checks that caches sharing one Counters add to the
// same two totals: building entries counts full optimizations, a costing
// counts one cached costing and no optimization.
func TestTelemetryCounters(t *testing.T) {
	f := newFixture(t, 3)
	var n inum.Counters
	a, b := inum.New(f.env, &n), inum.New(f.env, &n)
	var first *inum.CachedQuery
	for _, q := range f.w.Queries {
		cq, err := a.Prepare(q.ID, q.Stmt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = cq
		}
	}
	fullBefore, cachedBefore := n.FullOptimizations.Load(), n.CachedCostings.Load()
	if fullBefore == 0 {
		t.Fatal("prepare should count full optimizations")
	}
	if _, err := a.CostFor(first, catalog.NewConfiguration()); err != nil {
		t.Fatal(err)
	}
	if full, cached := n.FullOptimizations.Load(), n.CachedCostings.Load(); full != fullBefore || cached != cachedBefore+1 {
		t.Errorf("CostFor: full optimizations %d -> %d, cached costings %d -> %d", fullBefore, full, cachedBefore, cached)
	}
	q := f.w.Queries[0]
	if _, err := b.Prepare(q.ID, q.Stmt, nil); err != nil {
		t.Fatal(err)
	}
	if full := n.FullOptimizations.Load(); full != fullBefore+int64(first.PrepCost()) {
		t.Errorf("a second cache rebuilt %s: full optimizations %d -> %d, want +%d", q.ID, fullBefore, full, first.PrepCost())
	}
}
