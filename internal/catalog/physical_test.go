package catalog

import (
	"math/rand"
	"strings"
	"testing"
)

func testTable(t *testing.T) *Table {
	t.Helper()
	return MustTable("t", []Column{
		{Name: "a", Type: KindInt},
		{Name: "b", Type: KindFloat},
		{Name: "c", Type: KindString},
	}, "a")
}

func TestIndexKeyCanonical(t *testing.T) {
	ix1 := &Index{Name: "i1", Table: "T", Columns: []string{"A", "B"}}
	ix2 := &Index{Name: "other", Table: "t", Columns: []string{"a", "b"}}
	if ix1.Key() != ix2.Key() {
		t.Fatalf("keys differ: %q vs %q", ix1.Key(), ix2.Key())
	}
	if ix1.Key() != "t(a,b)" {
		t.Fatalf("key = %q, want t(a,b)", ix1.Key())
	}
	// Column order matters.
	ix3 := &Index{Name: "i3", Table: "t", Columns: []string{"b", "a"}}
	if ix3.Key() == ix1.Key() {
		t.Fatal("indexes with different column order must have different keys")
	}
}

func TestIndexCovers(t *testing.T) {
	ix := &Index{Table: "t", Columns: []string{"a", "b"}}
	if !ix.Covers([]string{"a"}) || !ix.Covers([]string{"B", "a"}) {
		t.Error("expected cover")
	}
	if ix.Covers([]string{"a", "c"}) {
		t.Error("should not cover column c")
	}
}

func TestVerticalLayoutFragmentFor(t *testing.T) {
	v := &VerticalLayout{Table: "t", Fragments: [][]string{{"b"}, {"c", "d"}}}
	if got := v.FragmentFor("c"); got != 1 {
		t.Errorf("FragmentFor(c) = %d, want 1", got)
	}
	if got := v.FragmentFor("B"); got != 0 {
		t.Errorf("FragmentFor(B) = %d, want 0 (case-insensitive)", got)
	}
	if got := v.FragmentFor("zz"); got != -1 {
		t.Errorf("FragmentFor(zz) = %d, want -1", got)
	}
}

func TestHorizontalLayoutFragmentFor(t *testing.T) {
	h := &HorizontalLayout{Table: "t", Column: "a", Bounds: []Datum{Int(10), Int(20)}}
	if h.FragmentCount() != 3 {
		t.Fatalf("FragmentCount = %d, want 3", h.FragmentCount())
	}
	cases := []struct {
		v    Datum
		want int
	}{
		{Int(5), 0}, {Int(10), 1}, {Int(15), 1}, {Int(20), 2}, {Int(100), 2},
	}
	for _, c := range cases {
		if got := h.FragmentFor(c.v); got != c.want {
			t.Errorf("FragmentFor(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestConfigurationWithWithout(t *testing.T) {
	cfg := NewConfiguration()
	ix := &Index{Name: "i", Table: "t", Columns: []string{"a"}}
	cfg2 := cfg.WithIndex(ix)
	if len(cfg.Indexes) != 0 {
		t.Fatal("WithIndex mutated the receiver")
	}
	if !cfg2.HasIndex("t(a)") {
		t.Fatal("index missing after WithIndex")
	}
	// Dedup by key.
	cfg3 := cfg2.WithIndex(&Index{Name: "dup", Table: "T", Columns: []string{"A"}})
	if len(cfg3.Indexes) != 1 {
		t.Fatalf("duplicate key admitted: %d indexes", len(cfg3.Indexes))
	}
	cfg4 := cfg3.WithoutIndex("t(a)")
	if cfg4.HasIndex("t(a)") || len(cfg4.Indexes) != 0 {
		t.Fatal("WithoutIndex failed")
	}
	if !cfg3.HasIndex("t(a)") {
		t.Fatal("WithoutIndex mutated the receiver")
	}
}

func TestConfigurationPartitions(t *testing.T) {
	cfg := NewConfiguration()
	cfg.SetVertical(&VerticalLayout{Table: "T1", Fragments: [][]string{{"x"}}})
	cfg.SetHorizontal(&HorizontalLayout{Table: "t1", Column: "a", Bounds: []Datum{Int(5)}})
	if cfg.VerticalOn("t1") == nil || cfg.HorizontalOn("T1") == nil {
		t.Fatal("partition lookups must be case-insensitive")
	}
	clone := cfg.Clone()
	clone.SetVertical(&VerticalLayout{Table: "t2", Fragments: nil})
	if cfg.VerticalOn("t2") != nil {
		t.Fatal("Clone shares the vertical map")
	}
}

func TestSchemaResolveColumn(t *testing.T) {
	s := NewSchema()
	s.MustAddTable(testTable(t))
	s.MustAddTable(MustTable("u", []Column{{Name: "a", Type: KindInt}, {Name: "z", Type: KindInt}}, "a"))

	tab, err := s.ResolveColumn("b", []string{"t", "u"})
	if err != nil || tab != "t" {
		t.Fatalf("ResolveColumn(b) = %q, %v", tab, err)
	}
	if _, err := s.ResolveColumn("a", []string{"t", "u"}); err == nil {
		t.Fatal("ambiguous column should error")
	}
	if _, err := s.ResolveColumn("nope", []string{"t"}); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("", nil); err == nil {
		t.Error("empty table name should error")
	}
	if _, err := NewTable("t", []Column{{Name: "a"}, {Name: "A"}}); err == nil {
		t.Error("duplicate column should error (case-insensitive)")
	}
	if _, err := NewTable("t", []Column{{Name: "a"}}, "missing"); err == nil {
		t.Error("unknown PK column should error")
	}
}

func TestTableRowWidth(t *testing.T) {
	tab := testTable(t)
	// 24 header + 8 + 8 + 16 (default string width)
	if got := tab.RowWidthBytes(); got != 56 {
		t.Fatalf("RowWidthBytes = %d, want 56", got)
	}
}

func TestLayoutStrings(t *testing.T) {
	v := &VerticalLayout{Table: "t", Fragments: [][]string{{"a", "b"}, {"c"}}}
	if !strings.Contains(v.String(), "{a,b}{c}") {
		t.Errorf("vertical String() = %q", v)
	}
	h := &HorizontalLayout{Table: "t", Column: "a", Bounds: []Datum{Int(1)}}
	if !strings.Contains(h.String(), "RANGE(a)") {
		t.Errorf("horizontal String() = %q", h)
	}
}

func TestSetVerticalLowerCasesFragments(t *testing.T) {
	v := &VerticalLayout{Table: "t", Fragments: [][]string{{"A", "b"}, {"cD"}}}
	NewConfiguration().SetVertical(v)
	if got := v.String(); got != "t: {a,b}{cd}" {
		t.Fatalf("layout after SetVertical = %q, want t: {a,b}{cd}", got)
	}
	// Setting a lower-case layout again writes nothing, so it races with
	// no reader of a configuration that already holds it (go test -race).
	done := make(chan string)
	go func() { done <- v.String() }()
	NewConfiguration().SetVertical(v)
	<-done
}

// TestHasKeyIsKeyEquality holds HasKey, which compares a structure with a
// key without rendering one, to Key equality over generated designs of
// every kind: plain indexes, projections and aggregate views, with names in
// mixed case, names holding the key's own separators, and names whose
// lower case is not byte for byte (NormCol's fallback). Each structure is
// asked about every key of the design and about near misses of its own:
// each proper prefix, the key extended, and the key with one byte changed.
func TestHasKeyIsKeyEquality(t *testing.T) {
	names := []string{"a", "B", "ra", "Dec", "PSFMAG_R", "a,b", "x)", "İd", "ΣUM", "ab", "A", ""}
	aggs := []string{"count(*)", "SUM(psfmag_r)", "avg(Z)", "min(a,b)"}
	rng := rand.New(rand.NewSource(1))
	pick := func(from []string, min int) []string {
		out := make([]string, min+rng.Intn(3))
		for i := range out {
			out[i] = from[rng.Intn(len(from))]
		}
		return out
	}
	var design []*Index
	for i := 0; i < 300; i++ {
		ix := &Index{Table: names[rng.Intn(len(names))], Columns: pick(names, 1), Kind: StructureKind(rng.Intn(3))}
		switch ix.Kind {
		case KindProjection:
			ix.Include = pick(names, 0)
		case KindAggView:
			ix.Aggs = pick(aggs, 1)
		}
		design = append(design, ix)
	}
	ask := func(ix *Index, key string) {
		if got, want := ix.HasKey(key), ix.Key() == key; got != want {
			t.Fatalf("%q.HasKey(%q) = %v, Key equality says %v", ix.Key(), key, got, want)
		}
	}
	kinds := map[StructureKind]int{}
	for _, ix := range design {
		kinds[ix.Kind]++
		for _, other := range design {
			ask(ix, other.Key())
		}
		key := ix.Key()
		for n := 0; n < len(key); n++ {
			ask(ix, key[:n])
			ask(ix, key[:n]+"~"+key[n+1:])
		}
		ask(ix, key+")")
		ask(ix, strings.ToUpper(key))
	}
	if len(kinds) != 3 {
		t.Fatalf("the generated design covers %d kinds, want 3", len(kinds))
	}
	cfg := &Configuration{Indexes: design[:20]}
	for _, ix := range design {
		want := false
		for _, member := range cfg.Indexes {
			want = want || member.Key() == ix.Key()
		}
		if got := cfg.HasIndex(ix.Key()); got != want {
			t.Fatalf("HasIndex(%q) = %v, want %v", ix.Key(), got, want)
		}
		if got := len(cfg.WithoutIndex(ix.Key()).Indexes); want == (got == len(cfg.Indexes)) {
			t.Fatalf("WithoutIndex(%q) keeps %d of %d members, want a member gone: %v", ix.Key(), got, len(cfg.Indexes), want)
		}
	}
}

// TestHasKeyRendersNothing: comparing a member with a key is what COLT's
// observe loop does for every hot candidate of every statement, and
// rendering the member's key cost an allocation a member.
func TestHasKeyRendersNothing(t *testing.T) {
	cfg := &Configuration{Indexes: []*Index{
		{Table: "PhotoObj", Columns: []string{"Type", "psfmag_r"}},
		{Table: "photoobj", Columns: []string{"ra"}, Kind: KindProjection, Include: []string{"dec"}},
		{Table: "photoobj", Columns: []string{"fieldid"}, Kind: KindAggView, Aggs: []string{"count(*)"}},
	}}
	if allocs := testing.AllocsPerRun(100, func() { cfg.HasIndex("specobj(z)") }); allocs != 0 {
		t.Fatalf("HasIndex over three members allocates %.0f times, want 0", allocs)
	}
}
