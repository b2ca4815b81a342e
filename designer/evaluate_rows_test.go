package designer

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestSessionEvaluateRowsMatchColdTwin is the facade twin of the engine's
// delta differential. A seeded walk edits one design session (indexes added
// and dropped, horizontal and vertical layouts set), and after every edit
// the session's answer must equal a fresh session's cold Evaluate of the
// same design: every row's ID, SQL and both costs by Float64bits, and both
// totals. At each step two deltas branch from the one state and must each
// equal their own cold twin, so a delta that wrote the costs it shares with
// its state would show. Every answer is overwritten once compared, and the
// session is asked again with no edit, so an answer that shared its rows
// with the session would show too.
func TestSessionEvaluateRowsMatchColdTwin(t *testing.T) {
	ctx := context.Background()
	d, err := OpenSDSS("tiny", 111)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.GenerateWorkload(112, 80)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	indexes := [][]string{
		{"photoobj", "ra"}, {"photoobj", "dec", "ra"}, {"photoobj", "type", "psfmag_r"},
		{"photoobj", "run", "camcol"}, {"specobj", "z"}, {"specobj", "bestobjid"},
		{"specobj", "class", "z"}, {"neighbors", "objid"}, {"field", "run", "camcol"},
	}
	layoutTables := []string{"photoobj", "specobj", "field"}

	// edit applies one seeded edit to s and names it.
	edit := func(s *DesignSession) string {
		table := layoutTables[rng.Intn(len(layoutTables))]
		tab := d.store.Schema.Table(table)
		switch rng.Intn(4) {
		case 0:
			col := tab.Columns[1+rng.Intn(len(tab.Columns)-1)].Name
			k := 2 + rng.Intn(7)
			if err := s.AddHorizontalPartition(table, col, k); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("horizontal %s(%s)/%d", table, col, k)
		case 1:
			frags := make([][]string, 2+rng.Intn(2))
			for i, c := range tab.Columns[1:] { // column 0 is the primary key
				f := i
				if i >= len(frags) {
					f = rng.Intn(len(frags))
				}
				frags[f] = append(frags[f], c.Name)
			}
			if err := s.AddVerticalPartition(table, frags); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("vertical %s%v", table, frags)
		default:
			spec := indexes[rng.Intn(len(indexes))]
			key := fmt.Sprintf("%s(%s)", spec[0], strings.Join(spec[1:], ","))
			if s.DropIndex(key) {
				return "drop " + key
			}
			if _, err := s.AddIndex(spec[0], spec[1:]...); err != nil {
				t.Fatal(err)
			}
			return "add " + key
		}
	}

	bits := math.Float64bits
	reused := 0
	// ask evaluates s, holds the answer to a fresh session's cold answer for
	// the same design, then overwrites every row of it.
	ask := func(label string, s *DesignSession) {
		t.Helper()
		got, err := s.Evaluate(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		_, ru := s.LastEvaluateDelta()
		reused += ru
		twin := d.NewDesignSession()
		twin.cfg = s.cfg.Clone()
		want, err := twin.Evaluate(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if rc, _ := twin.LastEvaluateDelta(); rc != w.Len() {
			t.Fatalf("%s: the twin recosted %d of %d queries: not a cold evaluation", label, rc, w.Len())
		}
		if bits(got.BaseTotal) != bits(want.BaseTotal) || bits(got.NewTotal) != bits(want.NewTotal) ||
			len(got.Queries) != len(want.Queries) {
			t.Fatalf("%s: (%v -> %v, %d rows), cold (%v -> %v, %d rows)", label,
				got.BaseTotal, got.NewTotal, len(got.Queries), want.BaseTotal, want.NewTotal, len(want.Queries))
		}
		for i, g := range got.Queries {
			x := want.Queries[i]
			if g.ID != x.ID || g.SQL != x.SQL || bits(g.BaseCost) != bits(x.BaseCost) || bits(g.NewCost) != bits(x.NewCost) {
				t.Fatalf("%s: row %d %+v, cold %+v", label, i, g, x)
			}
		}
		for i := range got.Queries {
			got.Queries[i] = QueryBenefit{ID: "overwritten", SQL: "overwritten", BaseCost: math.NaN(), NewCost: -1}
		}
	}

	s := d.NewDesignSession()
	for step := 0; step < 30; step++ {
		label := fmt.Sprintf("step %d: %s", step, edit(s))
		ask(label, s)
		ask(label+", asked again", s)
		st, cfg := s.evalState, s.cfg.Clone()
		for b := 0; b < 2; b++ {
			s.evalState, s.cfg = st, cfg.Clone()
			ask(fmt.Sprintf("%s, branch %d: %s", label, b, edit(s)), s)
		}
		s.evalState, s.cfg = st, cfg
	}
	if reused == 0 {
		t.Fatal("no answer reused a query's cost: the walk never took the delta path")
	}
}
