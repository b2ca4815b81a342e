package whatif_test

import (
	"fmt"
	"testing"

	"repro/designer"
	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// TestStructureConstructors runs one table of inputs for each structure kind
// through the what-if session and through the facade's six doors
// (Designer.Hypothetical{Index,Projection,AggView} and
// DesignSession.Add{Index,Projection,AggView}). Besides one valid,
// mixed-case input a kind, it holds one minimal input for each rule a
// constructor enforces — unknown table, empty keys, empty INCLUDE or
// aggregate list, unknown key or INCLUDE column, a repeated key column, a key
// repeated in INCLUDE, an aggregate that is not count(*) or an aggregate of a
// column of the table, a repeated aggregate — and inputs that break two rules at once, which pin the order the rules
// are checked in. A valid structure is pinned by key, name, pages, height and
// rows, and a refusal by its exact text; a session refuses the same structure
// added twice.
func TestStructureConstructors(t *testing.T) {
	const (
		index      = catalog.KindSecondary
		projection = catalog.KindProjection
		aggView    = catalog.KindAggView
	)
	cases := []struct {
		name        string
		kind        catalog.StructureKind
		table       string
		keys, extra []string
		want        string // the structure, rendered as describe does, or the refusal
		twice       string // the refusal of a second add of a valid structure
	}{
		{name: "index", kind: index, table: "PhotoObj", keys: []string{"Run", "CamCol"},
			want:  "photoobj(run,camcol) whatif_photoobj_run_camcol pages=10 height=2 rows=0",
			twice: "designer: index photoobj(run,camcol) already in the design"},
		{name: "index/unknown table", kind: index, table: "nope", keys: []string{"run"},
			want: `whatif: unknown table "nope"`},
		{name: "index/empty keys", kind: index, table: "photoobj",
			want: "whatif: index needs at least one column"},
		{name: "index/unknown key column", kind: index, table: "photoobj", keys: []string{"run", "nope"},
			want: `whatif: table photoobj has no column "nope"`},
		{name: "index/unknown table before empty keys", kind: index, table: "nope",
			want: `whatif: unknown table "nope"`},
		{name: "index/repeated key column", kind: index, table: "photoobj", keys: []string{"run", "RUN"},
			want: `whatif: column "RUN" repeats in the key`},
		{name: "index/unknown key column before repeated key column", kind: index, table: "photoobj", keys: []string{"run", "RUN", "nope"},
			want: `whatif: table photoobj has no column "nope"`},

		{name: "projection", kind: projection, table: "PhotoObj", keys: []string{"Run"}, extra: []string{"Ra", "ObjID"},
			want:  "photoobj(run) include(ra,objid) whatif_photoobj_run_inc pages=13 height=2 rows=0",
			twice: "designer: structure photoobj(run) include(ra,objid) already in the design"},
		{name: "projection/unknown table", kind: projection, table: "nope", keys: []string{"run"}, extra: []string{"ra"},
			want: `whatif: unknown table "nope"`},
		{name: "projection/empty keys", kind: projection, table: "photoobj", extra: []string{"ra"},
			want: "whatif: projection needs at least one key column"},
		{name: "projection/empty include", kind: projection, table: "photoobj", keys: []string{"run"},
			want: "whatif: projection needs at least one INCLUDE column; use HypotheticalIndex otherwise"},
		{name: "projection/unknown key column", kind: projection, table: "photoobj", keys: []string{"nope"}, extra: []string{"ra"},
			want: `whatif: table photoobj has no column "nope"`},
		{name: "projection/unknown include column", kind: projection, table: "photoobj", keys: []string{"run"}, extra: []string{"nope"},
			want: `whatif: table photoobj has no column "nope"`},
		{name: "projection/key repeated in include", kind: projection, table: "photoobj", keys: []string{"run"}, extra: []string{"ra", "RUN"},
			want: `whatif: column "RUN" is both key and INCLUDE`},
		{name: "projection/empty include before unknown key column", kind: projection, table: "photoobj", keys: []string{"nope"},
			want: "whatif: projection needs at least one INCLUDE column; use HypotheticalIndex otherwise"},

		{name: "aggview", kind: aggView, table: "PhotoObj", keys: []string{"Run", "CamCol"}, extra: []string{"COUNT(*)", "SUM(PsfMag_R)"},
			want:  "photoobj(run,camcol) agg(count(*),sum(psfmag_r)) whatif_mv_photoobj_run_camcol pages=1 height=0 rows=120",
			twice: "designer: structure photoobj(run,camcol) agg(count(*),sum(psfmag_r)) already in the design"},
		{name: "aggview/unknown table", kind: aggView, table: "nope", keys: []string{"run"}, extra: []string{"count(*)"},
			want: `whatif: unknown table "nope"`},
		{name: "aggview/empty keys", kind: aggView, table: "photoobj", extra: []string{"count(*)"},
			want: "whatif: aggregate view needs at least one group-key column"},
		{name: "aggview/empty aggregates", kind: aggView, table: "photoobj", keys: []string{"run"},
			want: "whatif: aggregate view needs at least one aggregate"},
		{name: "aggview/unknown key column", kind: aggView, table: "photoobj", keys: []string{"nope"}, extra: []string{"count(*)"},
			want: `whatif: table photoobj has no column "nope"`},
		{name: "aggview/not an aggregate", kind: aggView, table: "photoobj", keys: []string{"run"}, extra: []string{"bogus"},
			want: `whatif: aggregate "bogus" is not count(*) or an aggregate of one column`},
		{name: "aggview/unknown aggregate column", kind: aggView, table: "photoobj", keys: []string{"run"}, extra: []string{"sum(nope)"},
			want: `whatif: table photoobj has no column "nope"`},
		{name: "aggview/repeated aggregate", kind: aggView, table: "photoobj", keys: []string{"run"}, extra: []string{"count(*)", "COUNT(*)"},
			want: `whatif: aggregate "COUNT(*)" repeats count(*)`},
		{name: "aggview/repeated key column before bad aggregate", kind: aggView, table: "photoobj", keys: []string{"run", "Run"}, extra: []string{"bogus"},
			want: `whatif: column "Run" repeats in the key`},
	}

	store, err := workload.Generate(workload.TinySize(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s := whatif.NewSessionFromEnv(optimizer.NewEnv(store.Schema, store.Stats, nil), nil)
	d, err := designer.OpenSDSS("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The what-if session, through the door candidate ranking
			// sizes by: it keeps a valid structure and drops a refused one.
			got, want := "refused", "refused"
			if ix := s.Sized(c.kind, c.table, c.keys, c.extra); ix != nil {
				got = outcome(ix, nil)
			}
			if c.twice != "" {
				want = c.want
			}
			if got != want {
				t.Errorf("session:\n got %s\nwant %s", got, want)
			}
			if c.kind == index {
				ix, err := s.HypotheticalIndex(c.table, c.keys...)
				if got := outcome(ix, err); got != c.want {
					t.Errorf("session HypotheticalIndex:\n got %s\nwant %s", got, c.want)
				}
			}

			var ix designer.Index
			switch c.kind {
			case index:
				ix, err = d.HypotheticalIndex(c.table, c.keys...)
			case projection:
				ix, err = d.HypotheticalProjection(c.table, c.keys, c.extra)
			case aggView:
				ix, err = d.HypotheticalAggView(c.table, c.keys, c.extra)
			}
			if got := facadeOutcome(ix, err); got != c.want {
				t.Errorf("Designer door:\n got %s\nwant %s", got, c.want)
			}

			sess := d.NewDesignSession()
			add := func() (designer.Index, error) {
				switch c.kind {
				case projection:
					return sess.AddProjection(c.table, c.keys, c.extra)
				case aggView:
					return sess.AddAggView(c.table, c.keys, c.extra)
				}
				return sess.AddIndex(c.table, c.keys...)
			}
			if got := facadeOutcome(add()); got != c.want {
				t.Errorf("DesignSession door:\n got %s\nwant %s", got, c.want)
			}
			if c.twice != "" {
				n := len(sess.Config().Indexes())
				if _, err := add(); err == nil || err.Error() != c.twice {
					t.Errorf("DesignSession door, added twice:\n got %v\nwant %s", err, c.twice)
				}
				if m := len(sess.Config().Indexes()); m != n {
					t.Errorf("a refused second add changed the design from %d structures to %d", n, m)
				}
			}
		})
	}
}

func describe(key, name string, pages int64, height int, rows int64) string {
	return fmt.Sprintf("%s %s pages=%d height=%d rows=%d", key, name, pages, height, rows)
}

func outcome(ix *catalog.Index, err error) string {
	if err != nil {
		return err.Error()
	}
	return describe(ix.Key(), ix.Name, ix.EstimatedPages, ix.EstimatedHeight, ix.EstimatedRows)
}

func facadeOutcome(ix designer.Index, err error) string {
	if err != nil {
		return err.Error()
	}
	return describe(ix.Key(), ix.Name, ix.EstimatedPages, ix.EstimatedHeight, ix.EstimatedRows)
}
