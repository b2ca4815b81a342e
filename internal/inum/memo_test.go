package inum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// coldCosts is the memo's cold twin: it prices every table of the query
// from scratch under the full configuration — every structure of the table,
// visible or not, no memo — and evaluates the templates over the result.
// It returns the per-table access costs per order slot, the aggregate-view
// rewrite cost (-1: none) and the query cost.
func coldCosts(t *testing.T, c *Cache, q *CachedQuery, cfg *catalog.Configuration) (access [][]float64, mv, total float64) {
	t.Helper()
	for ti, table := range q.Tables {
		access = append(access, accessCosts(c, q, ti, optimizer.TableDesign{Indexes: cfg.IndexesOn(table), Vertical: cfg.VerticalOn(table), Horizontal: cfg.HorizontalOn(table)}))
	}
	total = math.Inf(1)
	nt := len(q.Tables)
	for i, internal := range q.internals {
		sum := internal
		for ti := range q.Tables {
			sum += access[ti][q.slots[i*nt+ti]-q.slotAt[ti]]
		}
		total = math.Min(total, sum)
	}
	mv = -1
	if nt == 1 {
		mv = c.base.BestMVRewriteCost(q.Stmt, cfg.Indexes)
		if mv >= 0 {
			total = math.Min(total, mv)
		}
	}
	return access, mv, total
}

// checkAgainstCold prices cfg through the long-lived cache — by the
// configuration and, when it holds no layout, by its structures' ordinals —
// and requires both to equal the cold twin's on a fresh cache, bit for bit.
func checkAgainstCold(t *testing.T, env *optimizer.Env, warm *Cache, wq *CachedQuery, cands []*catalog.Index, cfg *catalog.Configuration, what string) {
	t.Helper()
	fresh := New(env)
	fq, err := fresh.Prepare("", wq.Stmt, cands)
	if err != nil {
		t.Fatal(err)
	}
	_, _, want := coldCosts(t, fresh, fq, cfg)
	direct, err := warm.CostFor(wq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(direct) != math.Float64bits(want) {
		t.Fatalf("%s: CostFor %v, cold %v", what, direct, want)
	}
	if len(cfg.Vertical) == 0 && len(cfg.Horizontal) == 0 {
		if got := warm.CostOf(wq, warm.Number(cfg.Indexes), positions(len(cfg.Indexes))); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: CostOf %v, cold %v", what, got, want)
		}
	}
}

// positions is the set of the first n positions.
func positions(n int) []int {
	set := make([]int, n)
	for i := range set {
		set[i] = i
	}
	return set
}

// access reads table 0 of the query's access costs per order slot under the
// structures off its pricing table: the min of the base and their terms.
func access(c *Cache, q *CachedQuery, structs ...*catalog.Index) []float64 {
	o := c.Number(structs)
	tab := c.table(q, o.num, o.num.size.Load())
	out := slices.Clone(tab.base[:q.slotAt[1]])
	for _, id := range o.ids {
		if col := tab.cols[id]; col.t == 0 {
			for s := range out {
				out[s] = min(out[s], tab.vecs[int(col.at)+s])
			}
		}
	}
	return out
}

// designSpace is everything the differential tests draw configurations
// from: the wide candidate set plus, per table, every two-column
// permutation of its first six columns — structures that cover a query, or
// deliver an order, without their leading column being referenced.
func designSpace(t *testing.T, store *storage.Store, w *workload.Workload) []*catalog.Index {
	t.Helper()
	sess := whatif.NewSessionFromEnv(optimizer.NewEnv(store.Schema, store.Stats, nil), nil)
	opts := whatif.DefaultCandidateOptions()
	opts.IncludeProjections, opts.IncludeAggViews = true, true
	space := sess.GenerateCandidates(w, opts)
	for _, table := range store.Schema.Tables() {
		cols := table.Columns
		if len(cols) > 6 {
			cols = cols[:6]
		}
		for _, a := range cols {
			for _, b := range cols {
				if a.Name == b.Name {
					continue
				}
				ix, err := sess.HypotheticalIndex(table.Name, a.Name, b.Name)
				if err != nil {
					t.Fatal(err)
				}
				space = append(space, ix)
			}
		}
	}
	return space
}

// randomDesign draws a configuration: a random subset of the space and,
// often, a random vertical and a random horizontal layout.
func randomDesign(rng *rand.Rand, store *storage.Store, space []*catalog.Index) *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	for _, ix := range space {
		if rng.Intn(8) == 0 {
			cfg.Indexes = append(cfg.Indexes, ix)
		}
	}
	tables := store.Schema.Tables()
	if rng.Intn(2) == 0 {
		table := tables[rng.Intn(len(tables))]
		pk := map[string]bool{}
		for _, c := range table.PrimaryKey {
			pk[strings.ToLower(c)] = true
		}
		frags := make([][]string, 2+rng.Intn(2))
		for _, c := range table.Columns {
			if lc := strings.ToLower(c.Name); !pk[lc] {
				f := rng.Intn(len(frags))
				frags[f] = append(frags[f], lc)
			}
		}
		var kept [][]string
		for _, f := range frags {
			if len(f) > 0 {
				kept = append(kept, f)
			}
		}
		cfg.SetVertical(&catalog.VerticalLayout{Table: strings.ToLower(table.Name), Fragments: kept})
	}
	if rng.Intn(3) == 0 {
		table := tables[rng.Intn(len(tables))]
		col := table.Columns[rng.Intn(len(table.Columns))]
		if cs := store.Stats.Table(table.Name).Column(col.Name); cs != nil && cs.Hist != nil {
			k := 2 + rng.Intn(4)
			var bounds []catalog.Datum
			for i := 1; i < k; i++ {
				bounds = append(bounds, cs.Hist.Quantile(float64(i)/float64(k)))
			}
			cfg.SetHorizontal(&catalog.HorizontalLayout{Table: strings.ToLower(table.Name), Column: strings.ToLower(col.Name), Bounds: bounds})
		}
	}
	return cfg
}

// TestMemoMatchesColdTwin is the differential test of the pricing tables
// and the layout memo: whatever the long-lived cache has numbered, tabled
// and memoized so far, its answer for a configuration equals pricing that
// configuration from scratch with every structure in view.
func TestMemoMatchesColdTwin(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, nil)
	for pi, name := range []string{"uniform", "zipf", "drifting", "update_heavy"} {
		profile, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := profile.Generate(store.Schema, int64(50+pi), 10)
		if err != nil {
			t.Fatal(err)
		}
		space := designSpace(t, store, w)
		warm := New(env)
		entries := make([]*CachedQuery, len(w.Queries))
		for i, q := range w.Queries {
			if entries[i], err = warm.Prepare(q.ID, q.Stmt, space); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(pi)))
		for k := 0; k < 60; k++ {
			cfg := randomDesign(rng, store, space)
			for i, wq := range entries {
				checkAgainstCold(t, env, warm, wq, space, cfg, fmt.Sprintf("%s configuration %d query %d (%s)", name, k, i, w.Queries[i].SQL))
			}
		}
	}
}

// TestTemplateOrderMakesStructureVisible pins what lets the pricing table
// use the optimizer's own relevance rule: a template's leaf order is read off a
// plan seeded from the statement's interesting orders, so it names a column
// the statement references, and an index leading with that column — neither
// filtered on nor covering — is visible for the order it delivers.
func TestTemplateOrderMakesStructureVisible(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, nil)
	sess := whatif.NewSessionFromEnv(env, nil)
	w, err := workload.NewWorkloadFrom(store.Schema, 1, 1, []workload.Template{{
		Name: "ra_by_objid", Gen: func(*rand.Rand) string { return "SELECT ra FROM photoobj ORDER BY objid" },
	}})
	if err != nil {
		t.Fatal(err)
	}
	sharing, err := sess.HypotheticalIndex("photoobj", "objid", "type")
	if err != nil {
		t.Fatal(err)
	}
	other, err := sess.HypotheticalIndex("photoobj", "type", "dec")
	if err != nil {
		t.Fatal(err)
	}

	cache := New(env)
	q := w.Queries[0]
	cq, err := cache.Prepare(q.ID, q.Stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	ordered := false
	for _, o := range cq.orders[0] {
		ordered = ordered || (len(o) > 0 && o[0].Column == "objid")
	}
	if !ordered {
		t.Fatalf("no template requires photoobj ordered by objid (orders %v): the seed plan no longer scans the order index, rebuild this case", cq.orders[0])
	}
	o := cache.Number([]*catalog.Index{sharing, other})
	tab := cache.table(cq, o.num, o.num.size.Load())
	if tab.cols[o.ids[0]].t < 0 {
		t.Error("an index leading with a template's order column must be visible")
	}
	if tab.cols[o.ids[1]].t >= 0 {
		t.Error("an index that is neither referenced, covering nor ordering must stay invisible")
	}
	for _, members := range [][]*catalog.Index{nil, {sharing}, {other}, {sharing, other}} {
		cfg := catalog.NewConfiguration()
		cfg.Indexes = members
		checkAgainstCold(t, env, cache, cq, nil, cfg, fmt.Sprintf("%d structures", len(members)))
	}
	// The case has teeth only while the sharing index's ordered scan beats
	// sorting a sequential scan (objid is the clustering key).
	price := func(members ...*catalog.Index) []float64 { return access(cache, cq, members...) }
	bare, shared := price(), price(sharing)
	moved := false
	for slot := range bare {
		moved = moved || bare[slot] != shared[slot]
	}
	if !moved {
		t.Errorf("the sharing index changes no access cost (%v): the case no longer shows what an invisible structure would get wrong", bare)
	}
}

// parsed parses and resolves one statement: a fresh tree nobody has keyed.
func parsed(t *testing.T, schema *catalog.Schema, sql string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(stmt, schema); err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestEntryIsAFunctionOfItsStatement is the differential test of the one
// fork in the cache and of its key. For every statement of the five workload
// profiles, the entry Prepare builds is the same whatever candidate list
// rides in its ignored argument, whether or not the statement was priced on
// demand first, and whether it is asked for by the statement or by the
// statement re-parsed from its own rendering: equal template counts, and
// bit-equal costs over a family of generated configurations. One cache hands
// the statement and its re-parse one entry. The on-demand entry alone holds
// the no-order template and cost one optimization. Every order a template
// requires names a column the statement references — what CanUse relies on.
// Pairs of statements written differently that render alike — a float
// constant spelled two ways, an alias, JOIN ... ON, keyword case and
// spacing — are one key, and the entry built from either prices the other as
// its own fresh entry does. (An identifier keeps its case in the rendering,
// so `PhotoObj` and `photoobj` key apart: two entries, neither wrong. So do
// 16 and 16.0, an integer and a float: two trees.)
func TestEntryIsAFunctionOfItsStatement(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, nil)
	// Each source pairs every statement with another text of it: its own
	// rendering for the profiles, a different spelling for the pairs.
	type source struct {
		name      string
		w         *workload.Workload
		spellings []string
	}
	var sources []source
	for pi, name := range workload.ProfileNames() {
		profile, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := profile.Generate(store.Schema, int64(70+pi), 12)
		if err != nil {
			t.Fatal(err)
		}
		src := source{name: name, w: w}
		for _, q := range w.Queries {
			src.spellings = append(src.spellings, q.Stmt.String())
		}
		sources = append(sources, src)
	}
	pairs := [][2]string{
		{"SELECT objid FROM photoobj WHERE ra > 16.0", "SELECT objid FROM photoobj WHERE ra > 1.6e1"},
		{"SELECT ra FROM photoobj WHERE psfmag_r BETWEEN 17 AND 18.0 ORDER BY ra", "SELECT ra FROM photoobj WHERE psfmag_r BETWEEN 17 AND 180E-1 ORDER BY ra"},
		{"SELECT p.objid, p.ra FROM photoobj p WHERE p.type = 3 ORDER BY p.objid", "SELECT objid, ra FROM photoobj WHERE type = 3 ORDER BY objid"},
		{"SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z > 1", "SELECT photoobj.objid, specobj.z FROM photoobj, specobj WHERE specobj.z > 1 AND photoobj.objid = specobj.bestobjid"},
		{"SELECT p.objid, n.distance FROM photoobj p JOIN neighbors n ON p.objid = n.objid ORDER BY n.objid", "SELECT photoobj.objid, neighbors.distance FROM photoobj, neighbors WHERE photoobj.objid = neighbors.objid ORDER BY neighbors.objid"},
		{"select type, count(*) from photoobj where dec < -5 group by type order by type desc", "SELECT type, COUNT(*) FROM photoobj WHERE dec < -5 GROUP BY type ORDER BY type DESC"},
		{"SELECT  objid,ra\n  FROM photoobj\tWHERE type=6 AND psfmag_r<14", "SELECT objid, ra FROM photoobj WHERE type = 6 AND psfmag_r < 14"},
	}
	var written []workload.Template
	apart := source{name: "written apart"}
	for i, pair := range pairs {
		written = append(written, workload.Template{Name: fmt.Sprintf("pair%d", i), Gen: func(*rand.Rand) string { return pair[0] }})
		apart.spellings = append(apart.spellings, pair[1])
	}
	if apart.w, err = workload.NewWorkloadFrom(store.Schema, 1, len(pairs), written); err != nil {
		t.Fatal(err)
	}
	sources = append(sources, apart)

	multi := 0
	for pi, src := range sources {
		name, w := src.name, src.w
		space := designSpace(t, store, w)
		reversed := append([]*catalog.Index(nil), space...)
		slices.Reverse(reversed)
		rng := rand.New(rand.NewSource(int64(pi)))
		cfgs := []*catalog.Configuration{catalog.NewConfiguration()}
		all := catalog.NewConfiguration()
		all.Indexes = space
		cfgs = append(cfgs, all)
		for k := 0; k < 20; k++ {
			cfgs = append(cfgs, randomDesign(rng, store, space))
		}

		alone, completed := New(env), New(env)
		for i, q := range w.Queries {
			want, err := alone.Prepare(q.ID, q.Stmt, nil)
			if err != nil {
				t.Fatal(err)
			}
			spelled := parsed(t, store.Schema, src.spellings[i])
			if spelled.Key() != q.Stmt.Key() {
				t.Fatalf("%s %q and %q render apart:\n%s\n%s", name, q.SQL, src.spellings[i], q.Stmt.Key(), spelled.Key())
			}
			if same, err := alone.Prepare("", spelled, nil); err != nil || same != want {
				t.Errorf("%s %q: one cache holds another entry for %q (%v)", name, q.SQL, src.spellings[i], err)
			}
			for ti, orders := range want.orders {
				for _, o := range orders {
					if len(o) > 0 && !q.Stmt.Analysis().Columns[ti][catalog.NormCol(o[0].Column)] {
						t.Errorf("%s %q: a template wants %s ordered by %s, which the statement does not reference", name, q.SQL, want.Tables[ti], o[0].Column)
					}
				}
			}

			if want.TemplateCount() > 1 {
				multi++
			}

			onDemand, err := completed.OnDemand(q.Stmt)
			if err != nil {
				t.Fatal(err)
			}
			if onDemand.TemplateCount() != 1 || onDemand.PrepCost() != 1 {
				t.Errorf("%s %q: on-demand entry holds %d templates for %d optimizations, want 1 and 1", name, q.SQL, onDemand.TemplateCount(), onDemand.PrepCost())
			}
			after, err := completed.Prepare(q.ID, q.Stmt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := completed.OnDemand(q.Stmt); again != after {
				t.Errorf("%s %q: a prepared entry went back to on-demand", name, q.SQL)
			}
			twins := map[string]*CachedQuery{"on-demand then Prepare": after}
			for label, cands := range map[string][]*catalog.Index{"the design space": space, "the space reversed": reversed, "a single index": space[:1]} {
				fresh := New(env)
				if twins["Prepare with "+label], err = fresh.Prepare(q.ID, q.Stmt, cands); err != nil {
					t.Fatal(err)
				}
			}
			twin := "the statement re-parsed from its own rendering"
			if src.spellings[i] != q.Stmt.String() {
				twin = fmt.Sprintf("the statement written %q", src.spellings[i])
			}
			if twins[twin], err = New(env).Prepare("", spelled, nil); err != nil {
				t.Fatal(err)
			}
			for label, got := range twins {
				if got.TemplateCount() != want.TemplateCount() {
					t.Errorf("%s %q: %s holds %d templates, Prepare alone %d", name, q.SQL, label, got.TemplateCount(), want.TemplateCount())
					continue
				}
				for k, cfg := range cfgs {
					a, _ := alone.CostFor(want, cfg)
					b, _ := alone.CostFor(got, cfg)
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Errorf("%s %q configuration %d: %s prices %v, Prepare alone %v", name, q.SQL, k, label, b, a)
						break
					}
				}
			}
		}
	}
	if multi == 0 {
		t.Error("no statement has more than the no-order template: the workloads no longer tell a complete entry from an on-demand one")
	}
}

// TestConcurrentCostingMatchesSerial prices random configurations against
// one cached query from eight goroutines at once — first-touch numbering,
// table growth, layout misses and numberings started over included — and
// requires the serial pass's costs, bit for bit. Run under -race (ci.yml:
// race-soak).
func TestConcurrentCostingMatchesSerial(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, nil)
	w, err := workload.NewWorkload(store.Schema, 42, 6)
	if err != nil {
		t.Fatal(err)
	}
	space := designSpace(t, store, w)
	rng := rand.New(rand.NewSource(3))
	cfgs := make([]*catalog.Configuration, 96)
	for i := range cfgs {
		cfgs[i] = randomDesign(rng, store, space)
		if i%2 == 1 {
			cfgs[i].Vertical, cfgs[i].Horizontal = nil, nil
		}
	}
	for _, q := range w.Queries {
		serial := New(env)
		sq, err := serial.Prepare(q.ID, q.Stmt, space)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(cfgs))
		for i, cfg := range cfgs {
			if want[i], err = serial.CostFor(sq, cfg); err != nil {
				t.Fatal(err)
			}
		}

		shared := New(env)
		cq, err := shared.Prepare(q.ID, q.Stmt, space)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		got := make([][]float64, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			got[g] = make([]float64, len(cfgs))
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each goroutine walks the configurations from its own
				// offset, half of them pricing the layout-free ones by
				// ordinals, and one in four prices every structure at a
				// fresh address, so the numbering fills and starts over
				// while the others price.
				for k := range cfgs {
					i := (k + g*len(cfgs)/workers) % len(cfgs)
					var err error
					switch {
					case g%4 == 3:
						cfg := cfgs[i].Clone()
						for j, ix := range cfg.Indexes {
							twin := *ix
							cfg.Indexes[j] = &twin
						}
						got[g][i], err = shared.CostFor(cq, cfg)
					case g%2 == 0 || i%2 == 0:
						got[g][i], err = shared.CostFor(cq, cfgs[i])
					default:
						got[g][i] = shared.CostOf(cq, shared.Number(cfgs[i].Indexes), positions(len(cfgs[i].Indexes)))
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			for i := range cfgs {
				if math.Float64bits(got[g][i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: goroutine %d configuration %d: %v, serial pass %v", q.ID, g, i, got[g][i], want[i])
				}
			}
		}
	}
}

// TestMemoStartsOverAtTheBound prices more distinct structure addresses
// against one entry than a numbering may hold: the cache starts a new
// numbering, never grows one past the bound, and the costs do not move.
func TestMemoStartsOverAtTheBound(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, nil)
	w, err := workload.NewWorkload(store.Schema, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	cache := New(env)
	q := w.Queries[0]
	cq, err := cache.Prepare(q.ID, q.Stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := whatif.NewSessionFromEnv(env, nil)
	proto, err := sess.HypotheticalIndex(cq.Tables[0], store.Schema.Table(cq.Tables[0]).Columns[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := catalog.NewConfiguration()
	cfg.Indexes = []*catalog.Index{proto}
	want, err := cache.CostFor(cq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := cache.num.Load()
	for i := 0; i < maxNumbered+10; i++ {
		twin := *proto // the same design at a new address
		cfg.Indexes = []*catalog.Index{&twin}
		got, err := cache.CostFor(cq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("address %d: cost %v, first address cost %v", i, got, want)
		}
		if n := cache.num.Load().size.Load(); n > maxNumbered {
			t.Fatalf("the numbering holds %d structures, bound %d", n, maxNumbered)
		}
		if tab := cq.tab.Load(); len(tab.cols) > maxNumbered {
			t.Fatalf("the pricing table holds %d columns, bound %d", len(tab.cols), maxNumbered)
		}
	}
	if cache.num.Load() == first {
		t.Fatal("the numbering was never replaced")
	}
}

// TestMemoKeysOnTheLayoutFootprint is the differential test of the layout
// memo's key, on AutoPart-shaped sequences over one table: every pairwise
// merge of the current fragments priced as a fresh layout — merges of
// fragments a query reads and of fragments it does not — then one merge
// applied in place to a layout the configuration already holds, priced
// before and after the edit; and horizontal layouts on a column some queries
// filter and on one none does. Each costing equals a cold pricing bit for
// bit, and each query's layout memo holds exactly one entry per distinct
// (table, scan footprint) it was priced under — none when the layouts leave
// the footprint as the unpartitioned table's.
func TestMemoKeysOnTheLayoutFootprint(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, nil)
	sess := whatif.NewSessionFromEnv(env, nil)
	var structs []*catalog.Index
	for _, cols := range [][]string{{"specobj", "z"}, {"specobj", "bestobjid", "z"}, {"photoobj", "objid"}} {
		ix, err := sess.HypotheticalIndex(cols[0], cols[1:]...)
		if err != nil {
			t.Fatal(err)
		}
		structs = append(structs, ix)
	}
	bare, indexed := catalog.NewConfiguration(), catalog.NewConfiguration()
	indexed.Indexes = structs

	warm := New(env)
	var entries []*CachedQuery
	for _, sql := range []string{
		"SELECT z, class, plate FROM specobj WHERE z > 1",
		"SELECT bestobjid, sn_median FROM specobj WHERE zerr < 0.01 ORDER BY bestobjid",
		"SELECT specobjid FROM specobj WHERE specobjid < 100",
		"SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z > 1",
	} {
		q, err := warm.Prepare("", parsed(t, store.Schema, sql), nil)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, q)
	}

	// keys[i] collects query i's distinct (table, footprint) keys where the
	// layouts move the footprint.
	keys := make([]map[string]bool, len(entries))
	for i := range keys {
		keys[i] = map[string]bool{}
	}
	type scan struct{ pages, rows float64 }
	stitches := map[scan]map[float64]bool{} // footprints seen, per (pages, rows)
	horizontalMoved, horizontalIdle := false, false
	price := func(cfg *catalog.Configuration, what string) {
		for i, q := range entries {
			checkAgainstCold(t, env, warm, q, nil, cfg, fmt.Sprintf("%s, %s", what, q.Stmt.Key()))
			for ti, table := range q.Tables {
				v, h := cfg.VerticalOn(table), cfg.HorizontalOn(table)
				fp, moved := env.LayoutFootprint(q.Stmt, table, v, h)
				if moved {
					keys[i][fmt.Sprintf("%d|%x|%x|%x", ti, math.Float64bits(fp.Pages), math.Float64bits(fp.CPURows), math.Float64bits(fp.StitchCPU))] = true
					s := scan{fp.Pages, fp.CPURows}
					if stitches[s] == nil {
						stitches[s] = map[float64]bool{}
					}
					stitches[s][fp.StitchCPU] = true
				}
				if h != nil {
					alone, _ := env.LayoutFootprint(q.Stmt, table, v, nil)
					horizontalMoved = horizontalMoved || alone != fp
					horizontalIdle = horizontalIdle || alone == fp
				}
			}
		}
	}
	merged := func(frags [][]string, i, j int) [][]string {
		var out [][]string
		for k, f := range frags {
			switch k {
			case i:
				out = append(out, append(append([]string(nil), f...), frags[j]...))
			case j:
			default:
				out = append(out, f)
			}
		}
		return out
	}

	layout := &catalog.VerticalLayout{Table: "specobj", Fragments: [][]string{
		{"bestobjid"}, {"z"}, {"zerr"}, {"class"}, {"plate"}, {"mjd", "fiberid"}, {"subclass", "sn_median", "veldisp"},
	}}
	for round := 0; len(layout.Fragments) > 1; round++ {
		for _, base := range []*catalog.Configuration{bare, indexed} {
			for i := range layout.Fragments {
				for j := i + 1; j < len(layout.Fragments); j++ {
					trial := base.Clone()
					trial.SetVertical(&catalog.VerticalLayout{Table: layout.Table, Fragments: merged(layout.Fragments, i, j)})
					price(trial, fmt.Sprintf("round %d: merge %d and %d of %v", round, i, j, layout.Fragments))
				}
			}
		}
		// Edit the held layout in place, alternating the first two
		// fragments and the last two.
		held := indexed.Clone()
		held.SetVertical(layout)
		price(held, fmt.Sprintf("round %d: %v before the edit", round, layout.Fragments))
		i := 0
		if round%2 == 1 {
			i = len(layout.Fragments) - 2
		}
		layout.Fragments = merged(layout.Fragments, i, i+1)
		price(held, fmt.Sprintf("round %d: %v edited in place", round, layout.Fragments))
	}

	split := &catalog.VerticalLayout{Table: "specobj", Fragments: [][]string{
		{"bestobjid", "z", "zerr", "class"}, {"plate", "mjd", "fiberid", "subclass", "sn_median", "veldisp"},
	}}
	zs := store.Stats.Table("specobj").Column("z").Hist
	vs := store.Stats.Table("specobj").Column("veldisp").Hist
	for _, base := range []*catalog.Configuration{bare, indexed} {
		for _, v := range []*catalog.VerticalLayout{nil, split} {
			for _, h := range []*catalog.HorizontalLayout{
				{Table: "specobj", Column: "veldisp", Bounds: []catalog.Datum{vs.Quantile(0.25), vs.Quantile(0.5), vs.Quantile(0.75)}},
				{Table: "specobj", Column: "z", Bounds: []catalog.Datum{zs.Quantile(0.5)}},
				{Table: "specobj", Column: "z", Bounds: []catalog.Datum{zs.Quantile(0.25), zs.Quantile(0.5), zs.Quantile(0.75)}},
			} {
				cfg := base.Clone()
				if v != nil {
					cfg.SetVertical(v)
				}
				cfg.SetHorizontal(h)
				price(cfg, fmt.Sprintf("vertical %v, horizontal %v", v, h))
			}
		}
	}

	for i, q := range entries {
		used := 0
		if m := q.layouts.Load(); m != nil {
			used = m.used
		}
		if used != len(keys[i]) {
			t.Errorf("%s: the layout memo holds %d entries for %d distinct (table, footprint) keys", q.Stmt.Key(), used, len(keys[i]))
		}
	}
	stitchOnly := false
	for _, seen := range stitches {
		stitchOnly = stitchOnly || len(seen) > 1
	}
	if !stitchOnly {
		t.Error("no two footprints differ in their stitch CPU alone: the sequence no longer shows what a key without it would get wrong")
	}
	if !horizontalMoved || !horizontalIdle {
		t.Errorf("a horizontal layout moved a footprint: %v, left one alone: %v; the sequence needs both", horizontalMoved, horizontalIdle)
	}
}
