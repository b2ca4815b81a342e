package inum

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// handWritten are statements of shapes the generated workloads lack: IN
// lists, and an ORDER BY on a column nothing filters.
var handWritten = []string{
	"SELECT objid, ra FROM photoobj WHERE type IN (3, 6) AND psfmag_r < 20",
	"SELECT objid FROM photoobj WHERE run IN (94, 125, 752) ORDER BY ra LIMIT 10",
	"SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.plate IN (266, 267) ORDER BY s.zerr",
}

// TestLeadRuleIsExact holds the relevance rule to what a costing can see:
// over the five workload profiles, the tiny and small datasets and seeds 1
// and 5, every statement — and a few hand-written ones — meets every
// generated candidate (projections and aggregate views on) and a one-column
// index on every column it references. Wherever CanUse rejects a structure
// on a table of the statement, the structure offers no path in any order
// slot the statement's complete entry asks of that table — AccessTerms is
// +Inf for each — no aggregate rewrite, and leaves the full plan search's
// cost where it is without it, bit for bit. So a rejected structure cannot
// move a cost, which is what delta costing and the pricing table skip it
// on.
func TestLeadRuleIsExact(t *testing.T) {
	rejected, ordered := 0, 0
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
			sess := whatif.NewSessionFromEnv(env, nil)
			opts := whatif.DefaultCandidateOptions()
			opts.IncludeProjections, opts.IncludeAggViews = true, true
			for pi, name := range workload.ProfileNames() {
				profile, err := workload.ProfileByName(name)
				if err != nil {
					t.Fatal(err)
				}
				w, err := profile.Generate(store.Schema, seed+int64(pi), 24)
				if err != nil {
					t.Fatal(err)
				}
				for _, sql := range handWritten {
					w.Queries = append(w.Queries, workload.Query{SQL: sql, Weight: 1, Stmt: parsed(t, store.Schema, sql)})
				}
				cands := sess.GenerateCandidates(w, opts)
				cache := New(env)
				for _, q := range w.Queries {
					cq, err := cache.Prepare("", q.Stmt, nil)
					if err != nil {
						t.Fatal(err)
					}
					a := q.Stmt.Analysis()
					structs := slices.Clone(cands)
					for ti, table := range a.Tables {
						for col := range a.Columns[ti] {
							ix, err := sess.HypotheticalIndex(table, col)
							if err != nil {
								t.Fatal(err)
							}
							structs = append(structs, ix)
						}
					}
					bare, err := env.CostUnder(q.Stmt, catalog.NewConfiguration())
					if err != nil {
						t.Fatal(err)
					}
					for ti, table := range cq.Tables {
						var group []*catalog.Index
						for _, ix := range structs {
							if catalog.NormCol(ix.Table) != table || optimizer.CanUse(q.Stmt, table, ix) {
								continue
							}
							with, err := env.CostUnder(q.Stmt, catalog.NewConfiguration().WithIndex(ix))
							if err != nil {
								t.Fatal(err)
							}
							if math.Float64bits(with) != math.Float64bits(bare) {
								t.Errorf("%s seed %d %s, %s: CanUse rejects %s on %s, yet the plan search costs %v with it, %v without", size, seed, name, q.SQL, ix, table, with, bare)
							}
							if ix.Kind == catalog.KindAggView {
								if cost := env.BestMVRewriteCost(q.Stmt, []*catalog.Index{ix}); cost >= 0 {
									t.Errorf("%s seed %d %s, %s: CanUse rejects %s, yet it rewrites the statement at %v", size, seed, name, q.SQL, ix, cost)
								}
							}
							group = append(group, ix)
						}
						rejected += len(group)
						orders := append(slices.Clip(cq.orders[ti]), wanted(q.Stmt, table)...)
						if len(orders) > 1 {
							ordered += len(group)
						}
						_, terms, err := env.AccessTerms(q.Stmt, table, optimizer.TableDesign{Indexes: group}, orders, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						for k, term := range terms {
							if !math.IsInf(term, 1) {
								ix, slot := group[k/len(orders)], orders[k%len(orders)]
								t.Errorf("%s seed %d %s, %s: CanUse rejects %s on %s, yet it offers a path at %v in order %s",
									size, seed, name, q.SQL, ix, table, term, fmt.Sprint(slot))
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d rejected (statement, structure) pairs, %d on a table with an order slot", rejected, ordered)
	if ordered == 0 {
		t.Error("no rejected structure met an order slot: the test does not exercise the order rule")
	}
}

// wanted lists the orders the plan search can want of the table, read off
// the statement's tree and joins: one key, in either direction, on a join
// endpoint of the table or on the first ORDER BY column when it is one of
// the table's. FuzzLeadRuleIsExact reads the same list.
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
