package designer

import "repro/internal/whatif"

// CandidatesOf lists the candidates an advise of w with the default
// candidate options enumerates on the designer's current generation, for
// the external tests.
func (d *Designer) CandidatesOf(w *Workload) []Index {
	var out []Index
	for _, ix := range d.eng.Pin().Session().GenerateCandidates(w.internal(), whatif.DefaultCandidateOptions()) {
		out = append(out, indexFromInternal(ix))
	}
	return out
}
