package catalog

import (
	"strings"
	"testing"
)

func TestStructureKindByName(t *testing.T) {
	cases := []struct {
		name string
		want StructureKind
		ok   bool
	}{
		{"", KindSecondary, true},
		{"index", KindSecondary, true},
		{"Index", KindSecondary, true},
		{"projection", KindProjection, true},
		{"PROJECTION", KindProjection, true},
		{"aggview", KindAggView, true},
		{"view", 0, false},
		{"covering", 0, false},
	}
	for _, c := range cases {
		got, err := StructureKindByName(c.name)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("StructureKindByName(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("StructureKindByName(%q) should fail", c.name)
		}
	}
	for _, k := range []StructureKind{KindSecondary, KindProjection, KindAggView} {
		back, err := StructureKindByName(k.String())
		if err != nil || back != k {
			t.Errorf("kind %v does not round-trip through String(): %v, %v", k, back, err)
		}
	}
}

func TestStructureKeyForms(t *testing.T) {
	// Secondary indexes keep the exact legacy key form: everything built on
	// it (memo signatures, warm-start bases, dedup) must not move.
	sec := &Index{Table: "PhotoObj", Columns: []string{"Run", "CamCol"}}
	if got := sec.Key(); got != "photoobj(run,camcol)" {
		t.Errorf("secondary key = %q", got)
	}
	proj := &Index{Table: "PhotoObj", Columns: []string{"Run", "CamCol"},
		Kind: KindProjection, Include: []string{"ObjID", "RA"}}
	if got := proj.Key(); got != "photoobj(run,camcol) include(objid,ra)" {
		t.Errorf("projection key = %q", got)
	}
	mv := &Index{Table: "PhotoObj", Columns: []string{"Run", "CamCol"},
		Kind: KindAggView, Aggs: []string{"count(*)", "avg(psfmag_r)"}}
	if got := mv.Key(); got != "photoobj(run,camcol) agg(count(*),avg(psfmag_r))" {
		t.Errorf("aggview key = %q", got)
	}
	// Same key columns, three distinct identities.
	if sec.Key() == proj.Key() || sec.Key() == mv.Key() || proj.Key() == mv.Key() {
		t.Errorf("kinds must not collide: %q %q %q", sec.Key(), proj.Key(), mv.Key())
	}
}

func TestProjectionCovers(t *testing.T) {
	sec := &Index{Table: "t", Columns: []string{"a", "b"}}
	proj := &Index{Table: "t", Columns: []string{"a", "b"},
		Kind: KindProjection, Include: []string{"c"}}
	if sec.Covers([]string{"a", "b", "c"}) {
		t.Error("secondary index must not cover a column it does not store")
	}
	if !proj.Covers([]string{"a", "b", "c"}) {
		t.Error("projection must cover through its INCLUDE columns")
	}
	if !proj.Covers([]string{"C"}) {
		t.Error("coverage must be case-insensitive")
	}
}

func TestStructureDDL(t *testing.T) {
	sec := &Index{Table: "photoobj", Columns: []string{"run", "camcol"}}
	if got := sec.DDL("idx_p"); got != "CREATE INDEX idx_p ON photoobj (run, camcol);" {
		t.Errorf("secondary DDL = %q", got)
	}
	proj := &Index{Table: "photoobj", Columns: []string{"run"},
		Kind: KindProjection, Include: []string{"objid", "ra"}}
	if got := proj.DDL("idx_p"); got != "CREATE INDEX idx_p ON photoobj (run) INCLUDE (objid, ra);" {
		t.Errorf("projection DDL = %q", got)
	}
	mv := &Index{Table: "photoobj", Columns: []string{"run", "camcol"},
		Kind: KindAggView, Aggs: []string{"count(*)", "avg(psfmag_r)"}}
	want := "CREATE MATERIALIZED VIEW mv_p AS SELECT run, camcol, count(*), avg(psfmag_r) FROM photoobj GROUP BY run, camcol;"
	if got := mv.DDL("mv_p"); got != want {
		t.Errorf("aggview DDL = %q, want %q", got, want)
	}
}

func TestNormColUnifiesCanonicalization(t *testing.T) {
	if NormCol("PhotoObj") != "photoobj" {
		t.Errorf("NormCol = %q", NormCol("PhotoObj"))
	}
	got := NormCols([]string{"Run", "CAMCOL"})
	if strings.Join(got, ",") != "run,camcol" {
		t.Errorf("NormCols = %v", got)
	}
}
