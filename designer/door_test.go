package designer_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/designer"
)

// doorSQL is a one-table range query the sized photoobj(ra) serves: on
// tiny, seed 1, it costs 125.0138 on the base design and 13.4858 with the
// index (7 pages).
const doorSQL = "SELECT objid FROM photoobj WHERE ra BETWEEN 180 AND 181"

// doorSpecs are the door probe's specs: hand-sized copies of photoobj(ra),
// whose size fields every door ignores, and one minimal spec for each rule a
// door refuses. want is the constructor's refusal, or "" for a spec the doors
// must price as the constructor's photoobj(ra).
var doorSpecs = []struct {
	name string
	spec designer.Index
	want string
}{
	{"hand-sized to one page", designer.Index{Table: "photoobj", Columns: []string{"ra"}, EstimatedPages: 1}, ""},
	{"hand-sized to 2^30 pages", designer.Index{Table: "photoobj", Columns: []string{"ra"},
		EstimatedPages: 1 << 30, EstimatedHeight: 9, EstimatedRows: 5, Hypothetical: true, Name: "mine"}, ""},
	{"unknown column", designer.Index{Table: "photoobj", Columns: []string{"nope"}},
		`whatif: table photoobj has no column "nope"`},
	{"unknown table", designer.Index{Table: "nope", Columns: []string{"ra"}}, `whatif: unknown table "nope"`},
	{"no columns", designer.Index{Table: "photoobj"}, "whatif: index needs at least one column"},
	{"unknown kind", designer.Index{Table: "photoobj", Columns: []string{"ra"}, Kind: "bogus"},
		`catalog: unknown structure kind "bogus" (index|projection|aggview)`},
	{"repeated column", designer.Index{Table: "photoobj", Columns: []string{"ra", "ra"}},
		`whatif: column "ra" repeats in the key`},
}

// TestEveryDoorRefusesOrPricesTheSpec runs each of doorSpecs through every
// door that takes a spec from outside: Cost, Evaluate and Explain over a
// Configuration built by WithIndex, Materialize, Advise's pinned
// SeedIndexes, Autopilot.Adopt, and an autopilot state file whose live index
// is the spec (a state names no kind, so the kind row skips that door). A
// door refuses an invalid spec with the constructor's exact text (a state
// file's refusal names the file and the entry before it); a valid spec
// prices, by Float64bits, as the structure the constructor builds —
// whatever sizes the DTO carried.
func TestEveryDoorRefusesOrPricesTheSpec(t *testing.T) {
	ctx := context.Background()
	openTiny := func() *designer.Designer {
		d, err := designer.OpenSDSS("tiny", 1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := openTiny()
	q, err := d.ParseQuery("q", doorSQL)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.WorkloadFromSQL([]string{doorSQL})
	if err != nil {
		t.Fatal(err)
	}

	// The constructor's structure and what each door makes of it.
	ref := d.NewDesignSession()
	built, err := ref.AddIndex("photoobj", "ra")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ref.Evaluate(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	refCost := rep.Queries[0].NewCost
	refPlan, err := ref.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	pinned := func(spec designer.Index) (*designer.Advice, error) {
		return d.Advise(ctx, w, designer.AdviceOptions{SeedIndexes: []designer.Index{spec}, PinIndexes: true})
	}
	refAdvice, err := pinned(built)
	if err != nil {
		t.Fatal(err)
	}
	adopted := func(spec designer.Index) (int64, error) {
		ap, err := d.NewAutopilot(designer.DefaultTunerOptions(), designer.DefaultAutopilotOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := ap.Adopt(spec, 1); err != nil {
			return 0, err
		}
		return ap.Status().Builds[0].PagesTotal, nil
	}
	refBuild, err := adopted(built)
	if err != nil {
		t.Fatal(err)
	}
	materialized := func(spec designer.Index) (float64, error) {
		m := openTiny()
		if _, err := m.Materialize(ctx, []designer.Index{spec}); err != nil {
			return 0, err
		}
		return m.Cost(q, nil)
	}
	refMaterialized, err := materialized(built)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	for _, c := range doorSpecs {
		t.Run(c.name, func(t *testing.T) {
			check := func(door string, err error, priced bool) {
				t.Helper()
				switch {
				case c.want != "" && (err == nil || err.Error() != c.want):
					t.Errorf("%s: got %v, want the refusal %s", door, err, c.want)
				case c.want == "" && err != nil:
					t.Errorf("%s: refused a valid spec: %v", door, err)
				case c.want == "" && !priced:
					t.Errorf("%s: the spec does not price as the constructor's structure", door)
				}
			}
			cfg := designer.NewConfiguration().WithIndex(c.spec)
			cost, err := d.Cost(q, cfg)
			check("Cost", err, err == nil && same(cost, refCost))
			rep, err := d.Evaluate(ctx, w, cfg)
			check("Evaluate", err, err == nil && same(rep.Queries[0].NewCost, refCost))
			plan, err := d.Explain(q, cfg)
			check("Explain", err, err == nil && plan == refPlan)

			adv, err := pinned(c.spec)
			check("SeedIndexes", err, err == nil && same(adv.Solver.Objective, refAdvice.Solver.Objective) &&
				slices.EqualFunc(adv.Indexes, refAdvice.Indexes, sameStructure))
			pages, err := adopted(c.spec)
			check("Adopt", err, err == nil && pages == refBuild)
			mcost, err := materialized(c.spec)
			check("Materialize", err, err == nil && same(mcost, refMaterialized))
			if c.spec.Kind == "" {
				live, err := resumeLive(t, d, c.spec)
				check("state file", entryRefusal(err), err == nil && len(live) == 1 && sameStructure(live[0], built))
			}
		})
	}
}

// entryRefusal returns the refusal a state-file error gives for its live
// index, after the path and the entry it names.
func entryRefusal(err error) error {
	if err == nil {
		return nil
	}
	_, refusal, ok := strings.Cut(err.Error(), ": tuner.current[0]: ")
	if !ok {
		return err
	}
	return errors.New(refusal)
}

// sameStructure reports whether two DTOs name one structure of one size.
func sameStructure(a, b designer.Index) bool {
	return a.Key() == b.Key() && a.EstimatedPages == b.EstimatedPages &&
		a.EstimatedHeight == b.EstimatedHeight && a.EstimatedRows == b.EstimatedRows
}

// TestHeldKeyResolvesToTheHeldStructure holds the doors to the design they
// price on: once photoobj(ra) is materialized, a hand-sized spec of it
// resolves to the built index — not hypothetical, its real size — through
// an autopilot state file, and Cost over a Configuration holding it prices
// as the current design does. (Advise's seeds join a candidate set that
// already holds a what-if twin of every key the workload implies, so its
// answer does not show which one a seed resolved to.)
func TestHeldKeyResolvesToTheHeldStructure(t *testing.T) {
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := designer.Index{Table: "photoobj", Columns: []string{"ra"}, EstimatedPages: 1 << 30, Hypothetical: true}
	if _, err := d.Materialize(ctx, []designer.Index{spec}); err != nil {
		t.Fatal(err)
	}
	held := d.CurrentConfiguration().Indexes()[0]
	if held.Hypothetical || held.Key() != spec.Key() {
		t.Fatalf("the materialized index reads %+v", held)
	}
	w, err := d.WorkloadFromSQL([]string{doorSQL})
	if err != nil {
		t.Fatal(err)
	}
	if live, err := resumeLive(t, d, spec); err != nil || len(live) != 1 || live[0].Hypothetical || !sameStructure(live[0], held) {
		t.Errorf("the resumed live index is not the held index %+v: %+v (%v)", held, live, err)
	}
	q := w.Query(0)
	want, err := d.Cost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d.Cost(q, designer.NewConfiguration().WithIndex(spec)); err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Cost over the held key: %v (%v), the current design prices %v", got, err, want)
	}
}

// resumeLive writes an autopilot state file (version 2) whose one live
// index is the spec, resumes an autopilot on d from it, and returns its
// live indexes.
func resumeLive(t *testing.T, d *designer.Designer, spec designer.Index) ([]designer.Index, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "autopilot.json")
	live := map[string]any{"table": spec.Table, "columns": spec.Columns, "pages": spec.EstimatedPages}
	blob, err := json.Marshal(map[string]any{"version": 2, "tuner": map[string]any{"current": []any{live}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := designer.DefaultAutopilotOptions()
	opts.StatePath = path
	ap, err := d.NewAutopilot(designer.DefaultTunerOptions(), opts)
	if err != nil {
		return nil, err
	}
	return ap.Current(), nil
}

// TestOneSpecOneStructure is the property test over the doors that show the
// structure they resolve: for random valid specs of every kind — mixed case,
// carrying random hand sizes — Designer.Hypothetical*, DesignSession.Add*,
// Advise's pinned SeedIndexes and (for a secondary index) an autopilot
// state file's live index all yield one Key, the DTO's own Key, and the same
// pages, height and rows; and Cost over a Configuration built by WithIndex
// prices the spec as the session that added it does, by Float64bits.
func TestOneSpecOneStructure(t *testing.T) {
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.GenerateWorkload(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	tables := d.Describe().Tables
	mixCase := func(s string) string {
		if rng.Intn(2) == 0 {
			return strings.ToUpper(s)
		}
		return s
	}
	kinds := map[string]int{}
	for i := 0; i < 24; i++ {
		tab := tables[rng.Intn(len(tables))]
		var cols []string
		for _, j := range rng.Perm(len(tab.Columns))[:1+rng.Intn(min(4, len(tab.Columns)))] {
			cols = append(cols, mixCase(tab.Columns[j].Name))
		}
		spec := designer.Index{Table: mixCase(tab.Name), EstimatedPages: rng.Int63n(1 << 40),
			EstimatedHeight: rng.Intn(50), EstimatedRows: rng.Int63n(1 << 40)}
		var ref designer.Index
		sess := d.NewDesignSession()
		var added designer.Index
		switch k := rng.Intn(3); {
		case k == 1 && len(cols) > 1:
			spec.Kind, spec.Columns, spec.Include = "projection", cols[:1], cols[1:]
			ref, err = d.HypotheticalProjection(spec.Table, spec.Columns, spec.Include)
			if err == nil {
				added, err = sess.AddProjection(spec.Table, spec.Columns, spec.Include)
			}
		case k == 2:
			spec.Kind, spec.Columns = "aggview", cols
			spec.Aggs = []string{mixCase("count(*)"), mixCase("max(" + cols[0] + ")")}
			ref, err = d.HypotheticalAggView(spec.Table, spec.Columns, spec.Aggs)
			if err == nil {
				added, err = sess.AddAggView(spec.Table, spec.Columns, spec.Aggs)
			}
		default:
			spec.Columns = cols
			ref, err = d.HypotheticalIndex(spec.Table, spec.Columns...)
			if err == nil {
				added, err = sess.AddIndex(spec.Table, spec.Columns...)
			}
		}
		if err != nil {
			t.Fatalf("spec %d %+v: %v", i, spec, err)
		}
		if spec.Key() != ref.Key() || !sameStructure(added, ref) {
			t.Fatalf("spec %d: the DTO's key %s, the session's %+v and the designer's %+v differ", i, spec.Key(), added, ref)
		}

		adv, err := d.Advise(ctx, w, designer.AdviceOptions{SeedIndexes: []designer.Index{spec}, PinIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		if j := slices.IndexFunc(adv.Indexes, func(ix designer.Index) bool { return ix.Key() == ref.Key() }); j < 0 || !sameStructure(adv.Indexes[j], ref) {
			t.Fatalf("spec %d: the pinned seed is not the constructor's %+v in %+v", i, ref, adv.Indexes)
		}

		rep, err := sess.Evaluate(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		cfg := designer.NewConfiguration().WithIndex(spec)
		for j, qb := range rep.Queries {
			cost, err := d.Cost(w.Query(j), cfg)
			if err != nil || math.Float64bits(cost) != math.Float64bits(qb.NewCost) {
				t.Fatalf("spec %d, query %s: Cost %v (%v), the session prices %v", i, qb.ID, cost, err, qb.NewCost)
			}
		}

		if spec.Kind == "" {
			if live, err := resumeLive(t, d, spec); err != nil || len(live) != 1 || !sameStructure(live[0], ref) {
				t.Fatalf("spec %d: the resumed live index %+v (%v) is not the constructor's %+v", i, live, err, ref)
			}
		}
		kinds[spec.Kind]++
	}
	if len(kinds) != 3 {
		t.Fatalf("the specs cover the kinds %v, want all three", kinds)
	}
}

// FuzzIndexSpecDoor feeds outside bytes, decoded into a DTO spec — a kind
// (valid, mixed-case or bogus), a table or an unknown one, up to three key
// columns and two extras drawn from the table's columns, an unknown column
// and aggregate forms, and size fields — through Cost over a Configuration
// built by WithIndex. Each input is refused with the text a design session's
// Add* door gives the same spec (the kind parser's for a bogus kind), or
// priced as that session prices it, by Float64bits, whatever sizes the
// bytes set.
func FuzzIndexSpecDoor(f *testing.F) {
	ctx := context.Background()
	d, err := designer.OpenSDSS("tiny", 1)
	if err != nil {
		f.Fatal(err)
	}
	q, err := d.ParseQuery("q", doorSQL)
	if err != nil {
		f.Fatal(err)
	}
	w, err := d.WorkloadFromSQL([]string{doorSQL})
	if err != nil {
		f.Fatal(err)
	}
	tables := d.Describe().Tables
	kinds := []string{"", "index", "projection", "aggview", "AggView", "bogus"}
	aggForms := []string{"count(*)", "sum(%s)", "MIN(%s)", "count(%s)", "bogus(%s)"}
	// Seeds: photoobj(ra) hand-sized; an unknown column; a repeated column; a
	// bogus kind; a projection; an aggregate view.
	for _, seed := range [][]byte{
		{0, 0, 1, 2, 0, 255, 255}, {0, 0, 1, 250}, {0, 0, 2, 2, 2}, {5, 0, 1, 2},
		{2, 0, 1, 2, 1, 3}, {3, 0, 1, 9, 2, 0, 1, 1, 7},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		spec := designer.Index{Kind: kinds[next()%len(kinds)]}
		tab := tables[0]
		if i := next() % (len(tables) + 1); i < len(tables) {
			tab = tables[i]
			spec.Table = tab.Name
		} else {
			spec.Table = "nope"
		}
		column := func() string {
			i := next()
			j := i % (len(tab.Columns) + 1)
			if j == len(tab.Columns) {
				return "nope"
			}
			if i >= 128 {
				return strings.ToUpper(tab.Columns[j].Name)
			}
			return tab.Columns[j].Name
		}
		for n := next() % 4; n > 0; n-- {
			spec.Columns = append(spec.Columns, column())
		}
		for n := next() % 3; n > 0; n-- {
			form := aggForms[next()%len(aggForms)]
			if strings.Contains(form, "%s") {
				form = strings.Replace(form, "%s", column(), 1)
			}
			spec.Include = append(spec.Include, column())
			spec.Aggs = append(spec.Aggs, form)
		}
		spec.EstimatedPages, spec.EstimatedHeight, spec.EstimatedRows = int64(next())<<next(), next(), int64(next())

		cost, err := d.Cost(q, designer.NewConfiguration().WithIndex(spec))
		sess := d.NewDesignSession()
		var addErr error
		switch strings.ToLower(spec.Kind) {
		case "", "index":
			_, addErr = sess.AddIndex(spec.Table, spec.Columns...)
		case "projection":
			_, addErr = sess.AddProjection(spec.Table, spec.Columns, spec.Include)
		case "aggview":
			_, addErr = sess.AddAggView(spec.Table, spec.Columns, spec.Aggs)
		default:
			addErr = errors.New(`catalog: unknown structure kind "` + spec.Kind + `" (index|projection|aggview)`)
		}
		if addErr != nil {
			if err == nil || err.Error() != addErr.Error() {
				t.Fatalf("spec %+v: Cost gives %v (%v), the door refuses: %v", spec, cost, err, addErr)
			}
			return
		}
		rep, rerr := sess.Evaluate(ctx, w)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil || math.Float64bits(cost) != math.Float64bits(rep.Queries[0].NewCost) {
			t.Fatalf("spec %+v: Cost gives %v (%v), the session prices %v", spec, cost, err, rep.Queries[0].NewCost)
		}
	})
}
