//go:build !race

package inum_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// TestMemoHitAllocatesNothing guards the costing loop: once a query's
// pricing table holds a configuration's structures, pricing it again — by
// the configuration, with or without partition layouts, or by the
// structures' ordinals — makes no heap allocation. (Not under -race: the
// detector's instrumentation allocates.)
func TestMemoHitAllocatesNothing(t *testing.T) {
	f := newFixture(t, 8)
	rng := rand.New(rand.NewSource(5))
	plain := randomConfig(rng, f.cands)

	// The same structures under a vertical layout of photoobj and a
	// horizontal layout of photoobj and of specobj.
	partitioned := plain.Clone()
	var rest []string
	for _, c := range f.env.Schema.Table("photoobj").Columns {
		if lc := strings.ToLower(c.Name); lc != "ra" && lc != "dec" && lc != "objid" {
			rest = append(rest, lc)
		}
	}
	partitioned.SetVertical(&catalog.VerticalLayout{Table: "photoobj", Fragments: [][]string{{"ra", "dec"}, rest}})
	for _, tc := range [][2]string{{"photoobj", "ra"}, {"specobj", "z"}} {
		hist := f.env.Stats.Table(tc[0]).Column(tc[1]).Hist
		partitioned.SetHorizontal(&catalog.HorizontalLayout{Table: tc[0], Column: tc[1], Bounds: []catalog.Datum{hist.Quantile(0.25), hist.Quantile(0.5), hist.Quantile(0.75)}})
	}

	ords := f.cache.Number(plain.Indexes)
	set := make([]int, len(plain.Indexes))
	for i := range set {
		set[i] = i
	}
	for name, cfg := range map[string]*catalog.Configuration{"unpartitioned": plain, "partitioned": partitioned} {
		for _, q := range f.w.Queries {
			cq, err := f.cache.Prepare(q.ID, q.Stmt, f.cands)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.cache.CostFor(cq, cfg); err != nil { // fill the table
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() { _ = f.cache.CostOf(cq, ords, set) }); n != 0 {
				t.Errorf("%s %s: a table costing by ordinals makes %v allocations", name, q.ID, n)
			}
			if n := testing.AllocsPerRun(100, func() { _, _ = f.cache.CostFor(cq, cfg) }); n != 0 {
				t.Errorf("%s %s: a memo hit against the configuration makes %v allocations", name, q.ID, n)
			}
		}
	}
}
