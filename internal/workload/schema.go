// Package workload provides the SDSS-inspired synthetic database and query
// workload used throughout the repository — the substitution for the real
// Sloan Digital Sky Survey dataset the paper demonstrates on (PAPER.md,
// "This reproduction").
//
// The schema preserves the properties the designer's behaviour depends on:
// a wide fact table (PhotoObj) that rewards vertical partitioning, sky
// coordinates with range predicates (cone searches), a spectroscopic
// dimension table joined through a foreign key, a large self-referencing
// Neighbors table, and heavily skewed categorical columns.
package workload

import (
	"fmt"

	"repro/internal/catalog"
)

// Schema builds the SDSS-like schema:
//
//   - photoobj: wide photometric object table (48 columns),
//   - specobj: spectroscopic measurements, FK bestobjid -> photoobj.objid,
//   - neighbors: nearby-object pairs (objid, neighborobjid, distance),
//   - field: imaging fields with bounding boxes and quality.
func Schema() *catalog.Schema {
	s := catalog.NewSchema()

	photo := []catalog.Column{
		{Name: "objid", Type: catalog.KindInt},
		{Name: "ra", Type: catalog.KindFloat},
		{Name: "dec", Type: catalog.KindFloat},
		{Name: "type", Type: catalog.KindInt},
		{Name: "mode", Type: catalog.KindInt},
		{Name: "flags", Type: catalog.KindInt},
		{Name: "status", Type: catalog.KindInt},
		{Name: "run", Type: catalog.KindInt},
		{Name: "rerun", Type: catalog.KindInt},
		{Name: "camcol", Type: catalog.KindInt},
		{Name: "fieldid", Type: catalog.KindInt},
		{Name: "parentid", Type: catalog.KindInt},
		{Name: "nchild", Type: catalog.KindInt},
		{Name: "specobjid", Type: catalog.KindInt},
	}
	// Five-band photometry: psf, model and petro magnitudes plus errors and
	// extinction — this is what makes PhotoObj wide and AutoPart relevant.
	for _, band := range []string{"u", "g", "r", "i", "z"} {
		photo = append(photo,
			catalog.Column{Name: "psfmag_" + band, Type: catalog.KindFloat},
			catalog.Column{Name: "psfmagerr_" + band, Type: catalog.KindFloat},
			catalog.Column{Name: "modelmag_" + band, Type: catalog.KindFloat},
			catalog.Column{Name: "modelmagerr_" + band, Type: catalog.KindFloat},
			catalog.Column{Name: "extinction_" + band, Type: catalog.KindFloat},
			catalog.Column{Name: "petror50_" + band, Type: catalog.KindFloat},
		)
	}
	photo = append(photo,
		catalog.Column{Name: "rowc", Type: catalog.KindFloat},
		catalog.Column{Name: "colc", Type: catalog.KindFloat},
		catalog.Column{Name: "sky_r", Type: catalog.KindFloat},
		catalog.Column{Name: "airmass_r", Type: catalog.KindFloat},
	)
	s.MustAddTable(catalog.MustTable("photoobj", photo, "objid"))

	s.MustAddTable(catalog.MustTable("specobj", []catalog.Column{
		{Name: "specobjid", Type: catalog.KindInt},
		{Name: "bestobjid", Type: catalog.KindInt},
		{Name: "z", Type: catalog.KindFloat},
		{Name: "zerr", Type: catalog.KindFloat},
		{Name: "class", Type: catalog.KindInt}, // 0 galaxy, 1 qso, 2 star
		{Name: "subclass", Type: catalog.KindInt},
		{Name: "plate", Type: catalog.KindInt},
		{Name: "mjd", Type: catalog.KindInt},
		{Name: "fiberid", Type: catalog.KindInt},
		{Name: "sn_median", Type: catalog.KindFloat},
		{Name: "veldisp", Type: catalog.KindFloat},
	}, "specobjid"))

	s.MustAddTable(catalog.MustTable("neighbors", []catalog.Column{
		{Name: "objid", Type: catalog.KindInt},
		{Name: "neighborobjid", Type: catalog.KindInt},
		{Name: "distance", Type: catalog.KindFloat},
		{Name: "type", Type: catalog.KindInt},
		{Name: "neighbortype", Type: catalog.KindInt},
	}))

	s.MustAddTable(catalog.MustTable("field", []catalog.Column{
		{Name: "fieldid", Type: catalog.KindInt},
		{Name: "run", Type: catalog.KindInt},
		{Name: "camcol", Type: catalog.KindInt},
		{Name: "fieldnum", Type: catalog.KindInt},
		{Name: "ra_min", Type: catalog.KindFloat},
		{Name: "ra_max", Type: catalog.KindFloat},
		{Name: "dec_min", Type: catalog.KindFloat},
		{Name: "dec_max", Type: catalog.KindFloat},
		{Name: "quality", Type: catalog.KindInt},
		{Name: "mjd", Type: catalog.KindInt},
	}, "fieldid"))

	return s
}

// Size scales the generated dataset. Rows per table.
type Size struct {
	PhotoObj  int
	SpecObj   int
	Neighbors int
	Field     int
}

// SmallSize is a laptop-fast dataset for tests.
func SmallSize() Size {
	return Size{PhotoObj: 20000, SpecObj: 2000, Neighbors: 30000, Field: 200}
}

// MediumSize is the default demo/benchmark dataset.
func MediumSize() Size {
	return Size{PhotoObj: 100000, SpecObj: 10000, Neighbors: 150000, Field: 800}
}

// TinySize keeps property tests fast.
func TinySize() Size {
	return Size{PhotoObj: 2000, SpecObj: 200, Neighbors: 3000, Field: 40}
}

// SizeByName resolves a dataset size label (tiny|small|medium).
func SizeByName(name string) (Size, error) {
	switch name {
	case "tiny":
		return TinySize(), nil
	case "small":
		return SmallSize(), nil
	case "medium":
		return MediumSize(), nil
	}
	return Size{}, fmt.Errorf("workload: unknown size %q (tiny|small|medium)", name)
}
