// Cost backends — the "portable" pillar of the paper's title. The design
// algorithms (CoPhy, COLT, AutoPart, the interaction analyzer) never talk
// to an optimizer directly: every costing call is a method on a view, and a
// view prices through its generation's optimizer environment and its own
// INUM cache over that environment. A backend is the environment's cost
// constants, so swapping the backend swaps the cost model under the whole
// designer without touching a single advisor.
//
// The engine takes a calibration or none. With none, a generation prices
// with the built-in optimizer's default constants; with one, the same
// analytical machinery runs on the calibration's PostgreSQL-style
// constants — loaded from a JSON file, the SSD-era built-in profile, or
// fitted from a live server's planner settings (package livedb). Which
// outside choice maps to which calibration is the designer facade's
// business; the engine names no backend.
package engine

import "repro/internal/optimizer"

// BackendSpec is the cost backend an engine builds its generations under.
// The zero value is the built-in optimizer's constants.
type BackendSpec struct {
	// Calibration supplies the backend's cost constants; nil keeps the
	// built-in optimizer's.
	Calibration *Calibration
}

// validate checks the spec's calibration, if any, without building
// anything.
func (spec BackendSpec) validate() error {
	if spec.Calibration == nil {
		return nil
	}
	return spec.Calibration.Validate()
}

// env derives the environment a generation plans against under the spec
// (Optimize/Explain, what-if sessions) from its built-in one (schema +
// stats + base config): a calibration substitutes its cost constants.
func (spec BackendSpec) env(builtin *optimizer.Env) *optimizer.Env {
	if spec.Calibration == nil {
		return builtin
	}
	cenv := *builtin
	cenv.Params = spec.Calibration.Params()
	return &cenv
}
