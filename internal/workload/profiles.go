package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/catalog"
)

// Profile is a named workload shape: a rule for which query templates are
// drawn, how often, and whether the mix drifts over time. Profiles are the
// workload axis of the benchmark matrix — the same designer experiment run
// under a uniform mix, a Zipf-skewed mix, or an update-heavy stream answers
// different questions about design quality.
type Profile struct {
	Name        string
	Description string

	// templates is the template universe the profile draws from. Empty
	// means Templates().
	templates []Template
	// newDraw builds the profile's sampler over the resolved template set.
	// The returned function picks the i-th query's template; stationary
	// profiles ignore i, drifting profiles use it to shift the active set.
	newDraw func(rng *rand.Rand, templates []Template) func(i, n int) Template
	// weight assigns a query's relative frequency (nil = 1).
	weight func(t Template) float64
}

// pointTemplates are OLTP-style templates used by the update-heavy profile:
// the read access paths of point updates and FK maintenance lookups. The
// designer's cost model is read-only, so an UPDATE is modelled by the
// point-select that locates the row(s) it touches; a profile dominated by
// these shifts advised designs toward narrow key indexes and away from wide
// covering scans. They are deliberately not part of Templates() so existing
// seeded workloads stay byte-identical.
func pointTemplates() []Template {
	return []Template{
		{Name: "pk_update", Gen: func(rng *rand.Rand) string {
			id := 1_000_000 + rng.Intn(20000)
			return fmt.Sprintf(
				"SELECT objid, psfmag_r, modelmag_r FROM photoobj WHERE objid = %d", id)
		}},
		{Name: "spec_update", Gen: func(rng *rand.Rand) string {
			id := 5_000_000 + rng.Intn(2000)
			return fmt.Sprintf(
				"SELECT specobjid, z, class FROM specobj WHERE specobjid = %d", id)
		}},
		{Name: "fk_touch", Gen: func(rng *rand.Rand) string {
			id := 1_000_000 + rng.Intn(20000)
			return fmt.Sprintf(
				"SELECT bestobjid, z FROM specobj WHERE bestobjid = %d", id)
		}},
	}
}

// Profiles returns the registry of named workload profiles.
func Profiles() []Profile {
	return []Profile{
		{
			Name:        "uniform",
			Description: "round-robin over all templates — every access pattern equally important",
			newDraw: func(rng *rand.Rand, ts []Template) func(i, n int) Template {
				return func(i, n int) Template { return ts[i%len(ts)] }
			},
		},
		{
			Name:        "zipf",
			Description: "Zipf-skewed template frequencies — a few hot patterns dominate",
			newDraw: func(rng *rand.Rand, ts []Template) func(i, n int) Template {
				z := rand.NewZipf(rng, 1.3, 1, uint64(len(ts)-1))
				return func(i, n int) Template { return ts[int(z.Uint64())] }
			},
		},
		{
			Name:        "template_heavy",
			Description: "three dominant templates carry 90% of the draws, the tail shares 10%",
			newDraw: func(rng *rand.Rand, ts []Template) func(i, n int) Template {
				hot := []string{"cone_search", "spec_join", "bright_stars"}
				return func(i, n int) Template {
					if rng.Float64() < 0.9 {
						return *templateIn(ts, hot[rng.Intn(len(hot))])
					}
					return ts[rng.Intn(len(ts))]
				}
			},
			weight: func(t Template) float64 {
				switch t.Name {
				case "cone_search", "spec_join", "bright_stars":
					return 3
				}
				return 1
			},
		},
		{
			Name:        "drifting",
			Description: "three-phase drift: photometric, then spectroscopic, then neighbors",
			newDraw: func(rng *rand.Rand, ts []Template) func(i, n int) Template {
				phases := DefaultDriftPhases(1)
				return func(i, n int) Template {
					ph := phases[phaseOf(i, n, len(phases))]
					return *templateIn(ts, ph.Templates[rng.Intn(len(ph.Templates))])
				}
			},
		},
		{
			Name:        "update_heavy",
			Description: "80% point lookups modelling the read paths of an update stream, 20% scans",
			templates:   append(Templates(), pointTemplates()...),
			newDraw: func(rng *rand.Rand, ts []Template) func(i, n int) Template {
				points := []string{"pk_update", "spec_update", "fk_touch"}
				scans := []string{"bright_stars", "mag_range", "field_counts", "close_pairs"}
				return func(i, n int) Template {
					if rng.Float64() < 0.8 {
						return *templateIn(ts, points[rng.Intn(len(points))])
					}
					return *templateIn(ts, scans[rng.Intn(len(scans))])
				}
			},
		},
	}
}

// templateIn finds a template by name in a set (panics on a registry bug —
// profile template sets are static).
func templateIn(ts []Template, name string) *Template {
	for i := range ts {
		if ts[i].Name == name {
			return &ts[i]
		}
	}
	panic(fmt.Sprintf("workload: profile references unknown template %q", name))
}

// phaseOf splits positions 0..n-1 into k contiguous phases.
func phaseOf(i, n, k int) int {
	if n <= 0 {
		return 0
	}
	p := i * k / n
	if p >= k {
		p = k - 1
	}
	return p
}

// ProfileByName returns the named profile, or an error listing the valid
// names.
func ProfileByName(name string) (*Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			pp := p
			return &pp, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown profile %q (have %v)", name, ProfileNames())
}

// ProfileNames lists the registered profile names, sorted.
func ProfileNames() []string {
	var names []string
	for _, p := range Profiles() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}

// Generate instantiates n queries under the profile's template mix,
// deterministically for a given seed.
func (p *Profile) Generate(schema *catalog.Schema, seed int64, n int) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	templates := p.templates
	if len(templates) == 0 {
		templates = Templates()
	}
	draw := p.newDraw(rng, templates)
	w := &Workload{}
	for i := 0; i < n; i++ {
		t := draw(i, n)
		weight := 1.0
		if p.weight != nil {
			weight = p.weight(t)
		}
		q, err := instantiate(schema, rng, t, fmt.Sprintf("%s/%s#%d", p.Name, t.Name, i), weight)
		if err != nil {
			return nil, fmt.Errorf("workload: profile %s: %w", p.Name, err)
		}
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

// GenerateStream produces n queries as an ordered stream for online tuning.
// For the drifting profile the phase structure matters (the template mix
// shifts at phase boundaries); stationary profiles just emit their draws in
// sequence.
func (p *Profile) GenerateStream(schema *catalog.Schema, seed int64, n int) ([]Query, error) {
	if p.Name == "drifting" {
		phases := DefaultDriftPhases(n / 3)
		// Distribute the division remainder over the leading phases so the
		// stream is exactly n queries long.
		for i := 0; i < n%3; i++ {
			phases[i].Length++
		}
		var keep []Phase
		for _, ph := range phases {
			if ph.Length > 0 {
				keep = append(keep, ph)
			}
		}
		return Stream(schema, seed, keep)
	}
	w, err := p.Generate(schema, seed, n)
	if err != nil {
		return nil, err
	}
	return w.Queries, nil
}
