package designer

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/catalog"
)

// TestIndexConversionRoundTrip is the property test over the DTO ↔ catalog
// conversion pair. Outward, indexFromInternal copies the structure's name,
// flags and sizes; inward, what a DTO carries is narrowed to its spec: the
// kind, table, key columns and extra list read back as the structure's, and
// the canonical Key() is preserved. Sizes are outputs only, so they are
// never read back. Random structures cover all three kinds.
func TestIndexConversionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cols := []string{"run", "camcol", "field", "objid", "ra", "dec"}
	pick := func(n int) []string {
		perm := rng.Perm(len(cols))
		out := make([]string, 0, n)
		for _, i := range perm[:n] {
			out = append(out, cols[i])
		}
		return out
	}
	for i := 0; i < 200; i++ {
		ix := &catalog.Index{
			Name:            "s",
			Table:           "photoobj",
			Columns:         pick(1 + rng.Intn(3)),
			Unique:          rng.Intn(2) == 0,
			Hypothetical:    rng.Intn(2) == 0,
			EstimatedPages:  rng.Int63n(100),
			EstimatedHeight: rng.Intn(4),
		}
		var extra []string
		switch rng.Intn(3) {
		case 1:
			ix.Kind = catalog.KindProjection
			ix.Include = pick(1 + rng.Intn(2))
			extra = ix.Include
		case 2:
			ix.Kind = catalog.KindAggView
			ix.Aggs = []string{"count(*)", "sum(psfmag_r)"}[:1+rng.Intn(2)]
			ix.EstimatedRows = rng.Int63n(1000)
			extra = ix.Aggs
		}
		dto := indexFromInternal(ix)
		if dto.Name != ix.Name || dto.Unique != ix.Unique || dto.Hypothetical != ix.Hypothetical ||
			dto.EstimatedPages != ix.EstimatedPages || dto.EstimatedHeight != ix.EstimatedHeight ||
			dto.EstimatedRows != ix.EstimatedRows {
			t.Fatalf("outward copy diverged:\n in: %+v\nout: %+v", ix, dto)
		}
		kind, dtoExtra, err := dto.spec()
		if err != nil || kind != ix.Kind || dto.Table != ix.Table ||
			!reflect.DeepEqual(dto.Columns, ix.Columns) || !reflect.DeepEqual(dtoExtra, extra) {
			t.Fatalf("spec diverged:\n in: %+v\nout: %+v (kind %v, extra %v, %v)", ix, dto, kind, dtoExtra, err)
		}
		if dto.Key() != ix.Key() {
			t.Fatalf("DTO key %q != catalog key %q", dto.Key(), ix.Key())
		}
		if ix.Kind == catalog.KindSecondary && dto.Kind != "" {
			t.Fatalf("secondary DTO kind must stay empty, got %q", dto.Kind)
		}
	}
}

// TestUnknownDTOKindIsRefused pins the refusal that replaced the silent
// fallback to a secondary index: a DTO whose kind the catalog does not know
// is refused by the door, with the kind parser's text.
func TestUnknownDTOKindIsRefused(t *testing.T) {
	d, err := OpenSDSS("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	dto := Index{Table: "photoobj", Columns: []string{"run"}, Kind: "hologram"}
	_, err = dto.structure(d.eng.Pin().Session())
	if want := `catalog: unknown structure kind "hologram" (index|projection|aggview)`; err == nil || err.Error() != want {
		t.Fatalf("unknown kind: got %v, want %s", err, want)
	}
}

// TestConfigurationListsSpecsUnresolved pins what Indexes shows of a spec
// WithIndex added: the spec alone, marked Hypothetical, with the DTO's
// name and hand sizes dropped; a spec whose key the design already lists
// is not listed twice.
func TestConfigurationListsSpecsUnresolved(t *testing.T) {
	spec := Index{Name: "mine", Table: "photoobj", Columns: []string{"ra"},
		EstimatedPages: 1 << 30, EstimatedHeight: 9, EstimatedRows: 5}
	got := NewConfiguration().WithIndex(spec).WithIndex(spec).Indexes()
	want := []Index{{Table: "photoobj", Columns: []string{"ra"}, Hypothetical: true}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Indexes lists %+v, want %+v", got, want)
	}
}
