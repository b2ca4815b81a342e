package sqlparse_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/autopart"
	"repro/internal/catalog"
	"repro/internal/livedb"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// describe renders everything an analysis holds, in a fixed order: two
// analyses are equal exactly when their descriptions are.
func describe(a *sqlparse.Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tables %v star %v aggregate %v group keys %v plain %v aggregates %v\n",
		a.Tables, a.Star, a.Aggregate, a.GroupKeys, a.PlainGroups, a.Aggregates)
	for i, t := range a.Tables {
		fmt.Fprintf(&b, "%s: columns %v filters %v\n", t, slices.Sorted(maps.Keys(a.Columns[i])), a.Filters[i])
	}
	fmt.Fprintf(&b, "joins %v residual %v conjuncts %v\n", a.Joins, a.Residual, a.Conjuncts)
	return b.String()
}

// reparse parses and resolves a statement's rendering: its twin, which no
// one has analysed yet.
func reparse(t *testing.T, sel *sqlparse.SelectStmt, schema *catalog.Schema) *sqlparse.SelectStmt {
	t.Helper()
	twin, err := sqlparse.ParseSelect(sel.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(twin, schema); err != nil {
		t.Fatal(err)
	}
	return twin
}

// TestAnalysisIsAFunctionOfItsStatement holds the memos on the statement to
// the statement. For every statement of the five workload profiles and a
// set of hand-written shapes, the analysis a statement carries — derived
// once, where the workload was built, and read ever after — equals a fresh
// derivation on a re-parse of its rendering, and its key is that rendering;
// the optimizer prices the statement and its twin bit for bit alike over 22
// generated designs; eight goroutines racing the first uses see one analysis
// and one key; a vertical rewrite leaves the source's analysis and key as
// they were and carries a key of its own. A statement whose $n parameters
// are bound after Resolve is analysed and keyed with the literals, never the
// parameters.
func TestAnalysisIsAFunctionOfItsStatement(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	schema := store.Schema
	var queries []workload.Query
	for pi, name := range workload.ProfileNames() {
		profile, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := profile.Generate(schema, int64(90+pi), 24)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, w.Queries...)
	}
	var shapes []workload.Template
	for i, sql := range []string{
		"SELECT objid, ra FROM photoobj WHERE type = 3 ORDER BY ra + dec DESC",
		"SELECT DISTINCT type, camcol FROM photoobj WHERE psfmag_r < 20",
		"SELECT type, COUNT(*) FROM photoobj GROUP BY type HAVING COUNT(*) > 10 AND MAX(psfmag_r) < 25",
		"SELECT type, AVG(psfmag_r), COUNT(*) FROM photoobj WHERE camcol = 2 GROUP BY type",
		"SELECT p.objid, s.z, f.quality FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid JOIN field f ON p.fieldid = f.fieldid WHERE s.class = 1 AND p.ra + s.z > f.quality",
	} {
		shapes = append(shapes, workload.Template{Name: fmt.Sprintf("shape%d", i), Gen: func(*rand.Rand) string { return sql }})
	}
	hand, err := workload.NewWorkloadFrom(schema, 1, len(shapes), shapes)
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, hand.Queries...)

	env := optimizer.NewEnv(schema, store.Stats, nil)
	opts := whatif.DefaultCandidateOptions()
	opts.IncludeProjections, opts.IncludeAggViews = true, true
	space := whatif.NewSessionFromEnv(env, nil).GenerateCandidates(&workload.Workload{Queries: queries}, opts)
	rng := rand.New(rand.NewSource(5))
	designs := []*catalog.Configuration{catalog.NewConfiguration(), catalog.NewConfiguration()}
	designs[1].Indexes = space
	for len(designs) < 22 {
		cfg := catalog.NewConfiguration()
		for _, ix := range space {
			if rng.Intn(4) == 0 {
				cfg.Indexes = append(cfg.Indexes, ix)
			}
		}
		designs = append(designs, cfg)
	}
	split := catalog.NewConfiguration()
	photo := schema.Table("photoobj")
	var halves [2][]string
	for i, c := range photo.Columns {
		if !slices.Contains(photo.PrimaryKey, c.Name) {
			halves[i%2] = append(halves[i%2], strings.ToLower(c.Name))
		}
	}
	split.SetVertical(&catalog.VerticalLayout{Table: "photoobj", Fragments: halves[:]})

	for _, q := range queries {
		a := q.Stmt.Analysis()
		if q.Stmt.Analysis() != a {
			t.Fatalf("%q: a second use derived the analysis again", q.SQL)
		}
		want, key := describe(a), q.Stmt.Key()
		twin := reparse(t, q.Stmt, schema)
		if got := describe(twin.Analysis()); got != want {
			t.Errorf("%q: the statement carries\n%s a re-parse derives\n%s", q.SQL, want, got)
		}
		if key != twin.String() {
			t.Errorf("%q: the statement is keyed %q, its re-parse renders %q", q.SQL, key, twin.String())
		}
		for k, cfg := range designs {
			at, err := env.WithConfig(cfg).Cost(q.Stmt)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := env.WithConfig(cfg).Cost(twin)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(at) != math.Float64bits(fresh) {
				t.Errorf("%q design %d: costs %v, its re-parsed twin %v", q.SQL, k, at, fresh)
				break
			}
		}

		racer := reparse(t, q.Stmt, schema)
		seen := make([]*sqlparse.Analysis, 8)
		keys := make([]string, len(seen))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range seen {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				seen[g], keys[g] = racer.Analysis(), racer.Key()
			}()
		}
		close(start)
		wg.Wait()
		for g := range seen {
			if seen[g] != seen[0] {
				t.Fatalf("%q: goroutines %d and 0 racing the first use see two analyses", q.SQL, g)
			}
			if keys[g] != key || unsafe.StringData(keys[g]) != unsafe.StringData(keys[0]) {
				t.Fatalf("%q: goroutines %d and 0 racing the first use see two keys", q.SQL, g)
			}
		}
		if got := describe(seen[0]); got != want {
			t.Errorf("%q: the racers derive\n%s want\n%s", q.SQL, got, want)
		}

		if !slices.Contains(a.Tables, "photoobj") {
			continue
		}
		text, changed := autopart.RewriteQuery(q.Stmt, schema, split)
		if !changed {
			t.Fatalf("%q: the vertical layout on photoobj rewrote nothing", q.SQL)
		}
		if q.Stmt.Analysis() != a || describe(a) != want || q.Stmt.Key() != key {
			t.Errorf("%q: the rewrite changed the source's analysis or key", q.SQL)
		}
		rewritten, err := sqlparse.ParseSelect(text)
		if err != nil {
			t.Fatalf("%q: the rewrite %q does not parse: %v", q.SQL, text, err)
		}
		if rewritten.Key() != text {
			t.Errorf("%q: the rewrite renders %q and is keyed %q", q.SQL, text, rewritten.Key())
		}
		for _, table := range rewritten.Analysis().Tables {
			if table == "photoobj" {
				t.Errorf("%q: the rewrite %q still reads photoobj", q.SQL, text)
			}
		}
	}

	snap := &livedb.Snapshot{Schema: schema, Stats: store.Stats}
	for _, sql := range []string{
		"SELECT ra FROM photoobj WHERE type = $1 AND psfmag_r < $2 ORDER BY ra",
		"SELECT z FROM specobj WHERE z BETWEEN $1 AND $2 AND class IN ($3, 1)",
		"SELECT type, COUNT(*) FROM photoobj WHERE $1 <= camcol GROUP BY type HAVING COUNT(*) > 3",
	} {
		stmt, bound, err := livedb.Instantiate(sql, snap)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		a := stmt.Analysis()
		for _, conj := range a.Conjuncts {
			sqlparse.Walk(conj, func(e sqlparse.Expr) bool {
				if p, ok := e.(*sqlparse.Param); ok {
					t.Errorf("%q: the analysis holds parameter %s in %s, not its literal", sql, p, conj)
				}
				return true
			})
		}
		twin := reparse(t, stmt, schema)
		if got, want := describe(a), describe(twin.Analysis()); got != want || len(a.Filters[0]) == 0 {
			t.Errorf("%q (bound as %q): the statement carries\n%s a re-parse derives\n%s", sql, bound, got, want)
		}
		if stmt.Key() != twin.String() || stmt.Key() != bound {
			t.Errorf("%q (bound as %q): the statement is keyed %q, its re-parse renders %q", sql, bound, stmt.Key(), twin.String())
		}
	}
}
