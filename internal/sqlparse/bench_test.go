package sqlparse

import (
	"testing"

	"repro/internal/catalog"
)

const benchSQL = "SELECT p.objid, s.z, p.psfmag_r FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z BETWEEN 0.5 AND 0.7 AND p.psfmag_r < 20 AND p.type IN (3, 6) ORDER BY s.z DESC LIMIT 100"

func benchSchema() *catalog.Schema {
	s := catalog.NewSchema()
	s.MustAddTable(catalog.MustTable("photoobj", []catalog.Column{
		{Name: "objid", Type: catalog.KindInt},
		{Name: "psfmag_r", Type: catalog.KindFloat},
		{Name: "type", Type: catalog.KindInt},
	}, "objid"))
	s.MustAddTable(catalog.MustTable("specobj", []catalog.Column{
		{Name: "specobjid", Type: catalog.KindInt},
		{Name: "bestobjid", Type: catalog.KindInt},
		{Name: "z", Type: catalog.KindFloat},
	}, "specobjid"))
	return s
}

func BenchmarkParseSelect(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSelect(benchSQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseAndResolve(b *testing.B) {
	schema := benchSchema()
	for i := 0; i < b.N; i++ {
		sel, err := ParseSelect(benchSQL)
		if err != nil {
			b.Fatal(err)
		}
		if err := Resolve(sel, schema); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	schema := benchSchema()
	sel, err := ParseSelect(benchSQL)
	if err != nil {
		b.Fatal(err)
	}
	if err := Resolve(sel, schema); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyze(sel)
	}
}
