package optimizer_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/workload"
)

// leadData is the dataset the fuzz target prices against, generated once.
var leadData = sync.OnceValues(func() (*storage.Store, error) { return workload.Generate(workload.TinySize(), 43) })

// FuzzLeadRuleIsExact decodes bytes, one byte a number and missing bytes
// read as zero, into a generated statement — a workload profile (b%5), a
// seed (b) and one of its four statements (b%4) — and a structure spec on
// one of its tables (b): a kind (b%3), 1+b%3 key columns and, for a
// projection, one INCLUDE column, each a column the statement references on
// the table or any column of it (b). When CanUse rejects the structure, it
// must offer no path — AccessTerms is +Inf in any order and in every order
// the plan search or an INUM template can want of the table (wanted) — no
// aggregate rewrite, and the plan search must cost the statement with it
// as without it, bit for bit. Corpus (testdata/fuzz/FuzzLeadRuleIsExact):
// statements and structures of each kind.
func FuzzLeadRuleIsExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		store, err := leadData()
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
		sel := w.Queries[next()%len(w.Queries)].Stmt
		a := sel.Analysis()
		ti := next() % len(a.Tables)
		table := a.Tables[ti]
		var cols []string
		for c := range a.Columns[ti] {
			cols = append(cols, c)
		}
		slices.Sort(cols)
		for _, c := range store.Schema.Table(table).Columns {
			cols = append(cols, catalog.NormCol(c.Name))
		}
		ix := &catalog.Index{Table: table, Kind: catalog.StructureKind(next() % 3)}
		for k := 1 + next()%3; k > 0; k-- {
			if c := cols[next()%len(cols)]; !slices.Contains(ix.Columns, c) {
				ix.Columns = append(ix.Columns, c)
			}
		}
		switch ix.Kind {
		case catalog.KindProjection:
			if c := cols[next()%len(cols)]; !slices.Contains(ix.Columns, c) {
				ix.Include = []string{c}
			}
		case catalog.KindAggView:
			ix.Aggs = []string{"count(*)"}
		}

		env := optimizer.NewEnv(store.Schema, store.Stats, nil)
		if optimizer.CanUse(sel, table, ix) {
			return
		}
		bare, err := env.CostUnder(sel, catalog.NewConfiguration())
		if err != nil {
			t.Fatal(err)
		}
		if with, err := env.CostUnder(sel, catalog.NewConfiguration().WithIndex(ix)); err != nil || math.Float64bits(with) != math.Float64bits(bare) {
			t.Fatalf("%s: CanUse rejects %s, yet the plan search costs %v (%v) with it, %v without", sel, ix, with, err, bare)
		}
		if ix.Kind == catalog.KindAggView {
			if cost := env.BestMVRewriteCost(sel, []*catalog.Index{ix}); cost >= 0 {
				t.Fatalf("%s: CanUse rejects %s, yet it rewrites the statement at %v", sel, ix, cost)
			}
		}
		orders := append([][]optimizer.OrderKey{nil}, wanted(sel, table)...)
		_, terms, err := env.AccessTerms(sel, table, optimizer.TableDesign{Indexes: []*catalog.Index{ix}}, orders, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, term := range terms {
			if !math.IsInf(term, 1) {
				t.Fatalf("%s: CanUse rejects %s on %s, yet it offers a path at %v in order %v", sel, ix, table, term, orders[k])
			}
		}
	})
}

// wanted lists the orders the plan search or an INUM template can want of
// the table, read off the statement's tree and joins: one key, in either
// direction, on a join endpoint of the table or on the first ORDER BY
// column when it is one of the table's.
func wanted(sel *sqlparse.SelectStmt, table string) [][]optimizer.OrderKey {
	var cols []*sqlparse.ColumnRef
	for _, j := range sel.Analysis().Joins {
		cols = append(cols, &sqlparse.ColumnRef{Table: j.LeftTable, Column: j.LeftColumn}, &sqlparse.ColumnRef{Table: j.RightTable, Column: j.RightColumn})
	}
	if len(sel.OrderBy) > 0 {
		if c, ok := sel.OrderBy[0].Expr.(*sqlparse.ColumnRef); ok {
			cols = append(cols, c)
		}
	}
	var out [][]optimizer.OrderKey
	for _, c := range cols {
		if catalog.NormCol(c.Table) == table {
			col := catalog.NormCol(c.Column)
			out = append(out, []optimizer.OrderKey{{Table: table, Column: col}}, []optimizer.OrderKey{{Table: table, Column: col, Desc: true}})
		}
	}
	return out
}
