package workload

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

func TestGenerateSizes(t *testing.T) {
	store, err := Generate(TinySize(), 42)
	if err != nil {
		t.Fatal(err)
	}
	sz := TinySize()
	checks := map[string]int{
		"photoobj":  sz.PhotoObj,
		"specobj":   sz.SpecObj,
		"neighbors": sz.Neighbors,
		"field":     sz.Field,
	}
	for table, want := range checks {
		if got := store.Heap(table).RowCount(); got != int64(want) {
			t.Errorf("%s rows = %d, want %d", table, got, want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(TinySize(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(TinySize(), 7)
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := a.Heap("photoobj"), b.Heap("photoobj")
	for id := range ha.RowCount() {
		if ha.Row(id).String() != hb.Row(id).String() {
			t.Fatalf("row %d differs across same-seed runs", id)
		}
	}
}

func TestGenerateStats(t *testing.T) {
	store, err := Generate(TinySize(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := store.Stats.Table("photoobj")
	if ts == nil {
		t.Fatal("photoobj not analyzed")
	}
	// objid is generated sequentially: correlation ~1, unique.
	objid := ts.Column("objid")
	if objid.Correlation < 0.99 {
		t.Errorf("objid correlation = %f, want ~1", objid.Correlation)
	}
	if objid.NDV != ts.RowCount {
		t.Errorf("objid NDV = %d, want %d", objid.NDV, ts.RowCount)
	}
	// type is a small skewed domain.
	typ := ts.Column("type")
	if typ.NDV > 10 {
		t.Errorf("type NDV = %d, want small", typ.NDV)
	}
	// ra spans [0, 360).
	ra := ts.Column("ra")
	if ra.Min.AsFloat() < 0 || ra.Max.AsFloat() > 360 {
		t.Errorf("ra out of range: [%v, %v]", ra.Min, ra.Max)
	}
}

func TestAllTemplatesParseAndResolve(t *testing.T) {
	schema := Schema()
	rng := rand.New(rand.NewSource(9))
	for _, tpl := range Templates() {
		for trial := 0; trial < 5; trial++ {
			sql := tpl.Gen(rng)
			stmt, err := sqlparse.ParseSelect(sql)
			if err != nil {
				t.Fatalf("%s: %q: %v", tpl.Name, sql, err)
			}
			if err := sqlparse.Resolve(stmt, schema); err != nil {
				t.Fatalf("%s: %q: %v", tpl.Name, sql, err)
			}
		}
	}
}

func TestNewWorkloadCyclesTemplates(t *testing.T) {
	w, err := NewWorkload(Schema(), 1, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 24 {
		t.Fatalf("queries = %d", len(w.Queries))
	}
	if w.TotalWeight() != 24 {
		t.Fatalf("weight = %f", w.TotalWeight())
	}
	seen := map[string]bool{}
	for _, q := range w.Queries {
		seen[strings.SplitN(q.ID, "#", 2)[0]] = true
	}
	if len(seen) != len(Templates()) {
		t.Errorf("template coverage = %d, want %d", len(seen), len(Templates()))
	}
}

// TestFingerprintIsFixedLengthDigest pins the fingerprint as a digest, not
// the workload's text: constant length whatever the workload size, and
// sensitive to every field it covers.
func TestFingerprintIsFixedLengthDigest(t *testing.T) {
	w, err := NewWorkload(Schema(), 1, 24)
	if err != nil {
		t.Fatal(err)
	}
	fp := w.Fingerprint()
	if len(fp) != 64 {
		t.Fatalf("fingerprint length = %d, want 64 hex characters", len(fp))
	}
	if fp != w.Fingerprint() {
		t.Fatal("fingerprint is not deterministic")
	}
	if got := (&Workload{Queries: w.Queries[:3]}).Fingerprint(); len(got) != 64 || got == fp {
		t.Fatalf("3-query prefix fingerprint = %q (full workload %q)", got, fp)
	}
	edits := map[string]func(q *Query){
		"id":     func(q *Query) { q.ID += "x" },
		"sql":    func(q *Query) { q.SQL = q.SQL[:len(q.SQL)-1] + "~" },
		"weight": func(q *Query) { q.Weight += 0.5 },
	}
	for name, edit := range edits {
		e := &Workload{Queries: append([]Query(nil), w.Queries...)}
		edit(&e.Queries[7])
		if e.Fingerprint() == fp {
			t.Errorf("changing one query's %s left the fingerprint unchanged", name)
		}
	}
}

func TestStreamPhases(t *testing.T) {
	phases := DefaultDriftPhases(10)
	qs, err := Stream(Schema(), 3, phases)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 30 {
		t.Fatalf("stream length = %d", len(qs))
	}
	// Phase 1 queries must come from the photometric templates only.
	for _, q := range qs[:10] {
		if !strings.HasPrefix(q.ID, "photometric/") {
			t.Errorf("query %s not in photometric phase", q.ID)
		}
	}
	for _, q := range qs[20:] {
		if !strings.HasPrefix(q.ID, "neighbors/") {
			t.Errorf("query %s not in neighbors phase", q.ID)
		}
	}
}

func TestStreamUnknownTemplate(t *testing.T) {
	_, err := Stream(Schema(), 1, []Phase{{Name: "x", Templates: []string{"nope"}, Length: 1}})
	if err == nil {
		t.Fatal("unknown template should error")
	}
}

func TestTemplateByName(t *testing.T) {
	if TemplateByName("cone_search") == nil {
		t.Fatal("cone_search missing")
	}
	if TemplateByName("nope") != nil {
		t.Fatal("unknown template should be nil")
	}
}

// TestGeneratedRowsHaveExactWidth checks that every generated row reads
// back at its table's width, and that each of the table's column vectors
// holds exactly one value a row. The generator builds its rows in one
// reused buffer; a row of the wrong width would make the heap refuse it
// and Generate fail here.
func TestGeneratedRowsHaveExactWidth(t *testing.T) {
	store, err := Generate(TinySize(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range store.Schema.Tables() {
		want := len(table.Columns)
		h := store.Heap(table.Name)
		for id := range h.RowCount() {
			if r := h.Row(id); len(r) != want || cap(r) != want {
				t.Fatalf("%s row %d: len %d, cap %d, want both %d", table.Name, id, len(r), cap(r), want)
			}
		}
		if cols := h.Columns(); len(cols) != want {
			t.Fatalf("%s has %d column vectors, want %d", table.Name, len(cols), want)
		}
		for ci, col := range h.Columns() {
			if int64(col.Len()) != h.RowCount() {
				t.Fatalf("%s column %d holds %d values, want %d", table.Name, ci, col.Len(), h.RowCount())
			}
		}
	}
}
