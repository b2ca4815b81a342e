package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// Query is one workload member: SQL text, its resolved AST, and a weight
// (relative frequency) used by the advisors' objective functions.
type Query struct {
	ID     string
	SQL    string
	Weight float64
	Stmt   *sqlparse.SelectStmt
}

// Workload is a weighted set of queries.
type Workload struct {
	Queries []Query
}

// TotalWeight sums the query weights.
func (w *Workload) TotalWeight() float64 {
	var t float64
	for _, q := range w.Queries {
		t += q.Weight
	}
	return t
}

// SameQueries reports whether two member lists price alike: the same
// queries in the same order, each with the same ID, SQL text and weight
// bits, whichever trees they carry. Every state kept across questions (the
// engine's delta state, CoPhy's priced program) is reused by this rule.
func SameQueries(a, b []Query) bool {
	return slices.EqualFunc(a, b, func(x, y Query) bool {
		return x.ID == y.ID && x.SQL == y.SQL && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
	})
}

// Fingerprint identifies the workload by content: a SHA-256 digest over
// query IDs, SQL, weights, and order. Two workloads with equal fingerprints
// are interchangeable for costing — hence a cryptographic digest: a
// collision would serve one workload another's cached state. Its one
// caller is the benchmark's pipeline replica; the designer's re-advise and
// the engine's delta state keep the queries themselves and compare them
// member by member (SameQueries).
func (w *Workload) Fingerprint() string {
	h := sha256.New()
	var buf []byte
	for _, q := range w.Queries {
		buf = append(buf[:0], q.ID...)
		buf = append(buf, 0)
		buf = append(buf, q.SQL...)
		buf = append(buf, 0)
		buf = strconv.AppendFloat(buf, q.Weight, 'g', -1, 64)
		buf = append(buf, 1)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Template generates a parameterized SQL instance. Template functions are
// deterministic given the rng.
type Template struct {
	Name string
	Gen  func(rng *rand.Rand) string
}

// Templates returns the 12 query templates modeled on published SDSS query
// log forms: cone searches, color/magnitude cuts, spectroscopic joins,
// neighbor searches, and field summaries.
func Templates() []Template {
	return []Template{
		{Name: "cone_search", Gen: func(rng *rand.Rand) string {
			ra := rng.Float64() * 355
			dec := -25 + rng.Float64()*50
			dr := 0.5 + rng.Float64()*4
			return fmt.Sprintf(
				"SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN %.3f AND %.3f AND dec BETWEEN %.3f AND %.3f",
				ra, ra+dr, dec, dec+dr)
		}},
		{Name: "bright_stars", Gen: func(rng *rand.Rand) string {
			m := 16 + rng.Float64()*3
			return fmt.Sprintf(
				"SELECT objid, psfmag_r, ra, dec FROM photoobj WHERE type = 6 AND psfmag_r < %.2f",
				m)
		}},
		{Name: "mag_range", Gen: func(rng *rand.Rand) string {
			lo := 17 + rng.Float64()*3
			return fmt.Sprintf(
				"SELECT objid, psfmag_r, modelmag_r FROM photoobj WHERE psfmag_r BETWEEN %.2f AND %.2f AND type = 3",
				lo, lo+0.5+rng.Float64())
		}},
		{Name: "field_counts", Gen: func(rng *rand.Rand) string {
			t := []int{3, 6}[rng.Intn(2)]
			return fmt.Sprintf(
				"SELECT fieldid, COUNT(*) FROM photoobj WHERE type = %d GROUP BY fieldid", t)
		}},
		{Name: "spec_join", Gen: func(rng *rand.Rand) string {
			z1 := rng.Float64() * 0.4
			m := 19 + rng.Float64()*3
			return fmt.Sprintf(
				"SELECT p.objid, s.z, p.psfmag_r FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z BETWEEN %.3f AND %.3f AND p.psfmag_r < %.2f",
				z1, z1+0.1, m)
		}},
		{Name: "qso_survey", Gen: func(rng *rand.Rand) string {
			zc := 0.8 + rng.Float64()*1.5
			return fmt.Sprintf(
				"SELECT specobjid, bestobjid, z FROM specobj WHERE class = 1 AND z > %.3f ORDER BY z DESC LIMIT 100",
				zc)
		}},
		{Name: "close_pairs", Gen: func(rng *rand.Rand) string {
			d := 0.005 + rng.Float64()*0.05
			return fmt.Sprintf(
				"SELECT objid, neighborobjid, distance FROM neighbors WHERE distance < %.4f", d)
		}},
		{Name: "neighbor_join", Gen: func(rng *rand.Rand) string {
			d := 0.01 + rng.Float64()*0.05
			t := []int{3, 6}[rng.Intn(2)]
			return fmt.Sprintf(
				"SELECT p.objid, n.distance FROM photoobj p JOIN neighbors n ON p.objid = n.objid WHERE p.type = %d AND n.distance < %.4f",
				t, d)
		}},
		{Name: "field_quality", Gen: func(rng *rand.Rand) string {
			q := 1 + rng.Intn(2)
			return fmt.Sprintf(
				"SELECT f.fieldid, COUNT(*) FROM photoobj p JOIN field f ON p.fieldid = f.fieldid WHERE f.quality >= %d GROUP BY f.fieldid",
				q)
		}},
		{Name: "run_histogram", Gen: func(rng *rand.Rand) string {
			m := 18 + rng.Float64()*2
			return fmt.Sprintf(
				"SELECT run, camcol, COUNT(*), AVG(psfmag_r) FROM photoobj WHERE psfmag_r < %.2f GROUP BY run, camcol",
				m)
		}},
		{Name: "spec_sky", Gen: func(rng *rand.Rand) string {
			ra := rng.Float64() * 340
			return fmt.Sprintf(
				"SELECT p.ra, p.dec, s.z, s.class FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE p.ra BETWEEN %.2f AND %.2f AND s.sn_median > %.1f",
				ra, ra+15, 2+rng.Float64()*8)
		}},
		{Name: "ra_slice", Gen: func(rng *rand.Rand) string {
			dec := -20 + rng.Float64()*40
			return fmt.Sprintf(
				"SELECT objid, ra FROM photoobj WHERE dec BETWEEN %.2f AND %.2f ORDER BY ra LIMIT 1000",
				dec, dec+1.5)
		}},
	}
}

// TemplateByName returns the named template, or nil.
func TemplateByName(name string) *Template {
	for _, t := range Templates() {
		if t.Name == name {
			tt := t
			return &tt
		}
	}
	return nil
}

// NewWorkload instantiates n queries by cycling through the templates with
// rng-drawn parameters, resolving each against the schema. Weights default
// to 1.
func NewWorkload(schema *catalog.Schema, seed int64, n int) (*Workload, error) {
	return NewWorkloadFrom(schema, seed, n, Templates())
}

// NewWorkloadFrom is NewWorkload over a restricted template set.
func NewWorkloadFrom(schema *catalog.Schema, seed int64, n int, templates []Template) (*Workload, error) {
	if len(templates) == 0 {
		return nil, errors.New("workload: no templates")
	}
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{}
	for i := 0; i < n; i++ {
		t := templates[i%len(templates)]
		q, err := instantiate(schema, rng, t, fmt.Sprintf("%s#%d", t.Name, i), 1)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

// instantiate draws t's parameters from rng, parses and resolves the SQL
// against the schema, and returns it as query id of the given weight.
func instantiate(schema *catalog.Schema, rng *rand.Rand, t Template, id string, weight float64) (Query, error) {
	sql := t.Gen(rng)
	stmt, err := sqlparse.ParseSelect(sql)
	if err == nil {
		err = sqlparse.Resolve(stmt, schema)
	}
	if err != nil {
		return Query{}, fmt.Errorf("template %s: %w", t.Name, err)
	}
	return Query{ID: id, SQL: sql, Weight: weight, Stmt: stmt}, nil
}

// Phase describes one segment of a drifting query stream: which templates
// are active and for how many queries.
type Phase struct {
	Name      string
	Templates []string // template names
	Length    int
}

// Stream produces a drifting sequence of queries for online tuning
// (Scenario 3): each phase draws only from its template subset, so the
// dominant access patterns shift at phase boundaries.
func Stream(schema *catalog.Schema, seed int64, phases []Phase) ([]Query, error) {
	rng := rand.New(rand.NewSource(seed))
	all := Templates()
	byName := make(map[string]Template, len(all))
	for _, t := range all {
		byName[t.Name] = t
	}
	var out []Query
	idx := 0
	for _, ph := range phases {
		var active []Template
		for _, name := range ph.Templates {
			t, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("workload: unknown template %q in phase %q", name, ph.Name)
			}
			active = append(active, t)
		}
		if len(active) == 0 {
			return nil, fmt.Errorf("workload: phase %q has no templates", ph.Name)
		}
		for i := 0; i < ph.Length; i++ {
			t := active[rng.Intn(len(active))]
			q, err := instantiate(schema, rng, t, fmt.Sprintf("%s/%s#%d", ph.Name, t.Name, idx), 1)
			if err != nil {
				return nil, fmt.Errorf("workload: %w", err)
			}
			out = append(out, q)
			idx++
		}
	}
	return out, nil
}

// DefaultDriftPhases is the three-phase stream used by Scenario 3: a
// photometric phase, a spectroscopic phase, then a neighbors phase.
func DefaultDriftPhases(perPhase int) []Phase {
	return []Phase{
		{Name: "photometric", Templates: []string{"cone_search", "bright_stars", "mag_range", "ra_slice"}, Length: perPhase},
		{Name: "spectroscopic", Templates: []string{"qso_survey", "spec_join", "spec_sky"}, Length: perPhase},
		{Name: "neighbors", Templates: []string{"close_pairs", "neighbor_join", "field_counts"}, Length: perPhase},
	}
}
