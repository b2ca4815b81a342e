package workload

import (
	"math"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// ObjType codes mirror SDSS PhotoType: 3 = galaxy, 6 = star dominate.
var objTypeDist = []struct {
	value int64
	prob  float64
}{
	{3, 0.55}, // galaxy
	{6, 0.35}, // star
	{0, 0.05}, // unknown
	{5, 0.03}, // ghost
	{8, 0.02}, // sky
}

// Generate builds a deterministic synthetic SDSS-like dataset of the given
// size into a fresh store, and analyzes it.
func Generate(size Size, seed int64) (*storage.Store, error) {
	store := storage.NewStore(Schema())
	rng := rand.New(rand.NewSource(seed))
	tables := []struct {
		name string
		n    int
		row  func(row catalog.Row, i int) catalog.Row
	}{
		{"field", size.Field, fieldRow(rng)},
		{"photoobj", size.PhotoObj, photoObjRow(rng, size.PhotoObj, size.Field)},
		{"specobj", size.SpecObj, specObjRow(rng, size.PhotoObj)},
		{"neighbors", size.Neighbors, neighborsRow(rng, size.PhotoObj)},
	}
	for _, t := range tables {
		if err := load(store.Heap(t.name), t.n, t.row); err != nil {
			return nil, err
		}
	}
	if err := store.Analyze(); err != nil {
		return nil, err
	}
	return store, nil
}

// load inserts n generated rows into a heap, building each in one reused
// buffer that the heap copies into its column vectors.
func load(h *storage.Heap, n int, gen func(row catalog.Row, i int) catalog.Row) error {
	h.Grow(n)
	buf := make(catalog.Row, 0, len(h.Table.Columns))
	for i := 0; i < n; i++ {
		if _, err := h.Insert(gen(buf[:0], i)); err != nil {
			return err
		}
	}
	return nil
}

// pickType samples the skewed object-type distribution.
func pickType(rng *rand.Rand) int64 {
	r := rng.Float64()
	acc := 0.0
	for _, t := range objTypeDist {
		acc += t.prob
		if r < acc {
			return t.value
		}
	}
	return objTypeDist[len(objTypeDist)-1].value
}

// gaussMag draws a magnitude centered on mean: fainter objects are more
// numerous, matching real photometric catalogs.
func gaussMag(rng *rand.Rand, mean, sigma float64) float64 {
	v := mean + rng.NormFloat64()*sigma
	if v < 12 {
		v = 12 + rng.Float64()
	}
	if v > 28 {
		v = 28 - rng.Float64()
	}
	return v
}

// photoObjRow generates the wide photometric table's rows. Rows are
// emitted in objid order and objid increases with a sky stripe sweep, so
// objid and ra have high physical correlation while dec and magnitudes do
// not — the correlation structure index costing cares about.
func photoObjRow(rng *rand.Rand, n, numFields int) func(catalog.Row, int) catalog.Row {
	if numFields < 1 {
		numFields = 1
	}
	offsets := []float64{1.8, 0.6, 0.0, -0.3, -0.5} // band offsets from r: u g r i z
	return func(row catalog.Row, i int) catalog.Row {
		objid := int64(1_000_000 + i)
		// Sweep RA as objid grows (stripes), jitter within the stripe.
		ra := math.Mod(float64(i)/float64(n)*360+rng.Float64()*0.5, 360)
		dec := rng.NormFloat64() * 20 // concentrated near the equator
		if dec > 90 {
			dec = 90
		}
		if dec < -90 {
			dec = -90
		}
		typ := pickType(rng)
		run := int64(100 + rng.Intn(20))
		camcol := int64(1 + rng.Intn(6))
		fieldid := int64(rng.Intn(numFields))
		// Base magnitude: stars brighter on average than galaxies.
		base := 20.5
		if typ == 6 {
			base = 18.5
		}
		rMag := gaussMag(rng, base, 1.8)

		row = append(row,
			catalog.Int(objid),
			catalog.Float(ra),
			catalog.Float(dec),
			catalog.Int(typ),
			catalog.Int(int64(1+rng.Intn(2))),   // mode
			catalog.Int(int64(rng.Intn(1<<16))), // flags
			catalog.Int(int64(rng.Intn(4))),     // status
			catalog.Int(run),
			catalog.Int(301), // rerun constant, a realistic near-zero-NDV column
			catalog.Int(camcol),
			catalog.Int(fieldid),
			catalog.Int(0),                  // parentid
			catalog.Int(int64(rng.Intn(3))), // nchild
			catalog.Int(0),                  // specobjid (filled for some)
		)
		// Five bands with realistic color offsets from r.
		for _, off := range offsets {
			mag := rMag + off + rng.NormFloat64()*0.3
			row = append(row,
				catalog.Float(mag),                           // psfmag
				catalog.Float(0.01+rng.Float64()*0.2),        // psfmagerr
				catalog.Float(mag-0.1+rng.NormFloat64()*0.1), // modelmag
				catalog.Float(0.01+rng.Float64()*0.2),        // modelmagerr
				catalog.Float(rng.Float64()*0.3),             // extinction
				catalog.Float(0.5+rng.ExpFloat64()*2),        // petror50
			)
		}
		return append(row,
			catalog.Float(rng.Float64()*1489),  // rowc
			catalog.Float(rng.Float64()*2048),  // colc
			catalog.Float(rng.Float64()*50),    // sky_r
			catalog.Float(1+rng.Float64()*0.8), // airmass_r
		)
	}
}

// specObjRow generates spectra for a subset of photo objects.
func specObjRow(rng *rand.Rand, numPhoto int) func(catalog.Row, int) catalog.Row {
	return func(row catalog.Row, i int) catalog.Row {
		specid := int64(5_000_000 + i)
		best := int64(1_000_000 + rng.Intn(max(numPhoto, 1)))
		class := int64(0) // galaxy
		r := rng.Float64()
		var z float64
		switch {
		case r < 0.12:
			class = 1 // QSO: high redshift
			z = 0.5 + rng.ExpFloat64()*0.8
		case r < 0.35:
			class = 2 // star: ~zero redshift
			z = rng.NormFloat64() * 0.0005
		default:
			z = rng.ExpFloat64() * 0.15 // galaxies
		}
		if z > 7 {
			z = 7
		}
		return append(row,
			catalog.Int(specid),
			catalog.Int(best),
			catalog.Float(z),
			catalog.Float(0.0001+rng.Float64()*0.001),
			catalog.Int(class),
			catalog.Int(int64(rng.Intn(12))),
			catalog.Int(int64(266+rng.Intn(3000))),
			catalog.Int(int64(51600+rng.Intn(3000))),
			catalog.Int(int64(1+rng.Intn(640))),
			catalog.Float(1+rng.ExpFloat64()*8),
			catalog.Float(rng.Float64()*350),
		)
	}
}

// neighborsRow generates nearest-neighbor pairs with exponentially
// distributed separations (most neighbors are very close).
func neighborsRow(rng *rand.Rand, numPhoto int) func(catalog.Row, int) catalog.Row {
	return func(row catalog.Row, _ int) catalog.Row {
		a := int64(1_000_000 + rng.Intn(max(numPhoto, 1)))
		b := int64(1_000_000 + rng.Intn(max(numPhoto, 1)))
		return append(row,
			catalog.Int(a),
			catalog.Int(b),
			catalog.Float(rng.ExpFloat64()*0.1), // arcmin
			catalog.Int(pickType(rng)),
			catalog.Int(pickType(rng)),
		)
	}
}

// fieldRow generates imaging fields with bounding boxes.
func fieldRow(rng *rand.Rand) func(catalog.Row, int) catalog.Row {
	return func(row catalog.Row, i int) catalog.Row {
		raMin := rng.Float64() * 359
		decMin := -30 + rng.Float64()*60
		return append(row,
			catalog.Int(int64(i)),
			catalog.Int(int64(100+rng.Intn(20))),
			catalog.Int(int64(1+rng.Intn(6))),
			catalog.Int(int64(11+rng.Intn(800))),
			catalog.Float(raMin),
			catalog.Float(raMin+0.25),
			catalog.Float(decMin),
			catalog.Float(decMin+0.25),
			catalog.Int(int64(1+rng.Intn(3))), // quality 1..3
			catalog.Int(int64(51600+rng.Intn(3000))),
		)
	}
}
