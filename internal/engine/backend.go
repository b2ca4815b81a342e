// Cost backends — the "portable" pillar of the paper's title. The design
// algorithms (CoPhy, COLT, AutoPart, the interaction analyzer) never talk
// to an optimizer directly: every costing call is a method on a view, and a
// view prices through its generation's optimizer environment and its own
// INUM cache over that environment. A backend is the environment's cost
// constants, so swapping the backend swaps the cost model under the whole
// designer without touching a single advisor.
//
// Two backends ship in-tree:
//
//   - native: the built-in optimizer's default cost constants.
//   - calibrated: the same analytical machinery running on PostgreSQL-style
//     cost constants loaded from a JSON calibration file — the stand-in for
//     "another engine's economy" (SSD defaults built in).
//
// A live PostgreSQL server (package livedb) reaches the engine as a
// calibrated backend whose constants are fitted from the server's planner
// settings; a recorded wire trace replays that fit offline.
package engine

import (
	"fmt"

	"repro/internal/optimizer"
)

// Backend kinds.
const (
	BackendNative     = "native"
	BackendCalibrated = "calibrated"
)

// BackendKinds lists the selectable backend kinds in canonical order.
func BackendKinds() []string { return []string{BackendNative, BackendCalibrated} }

// BackendInfo is the descriptive form of the active backend.
type BackendInfo struct {
	Kind        string
	Description string
}

// BackendSpec selects and parameterizes the cost backend an engine builds
// for every generation. The zero value means the native backend.
type BackendSpec struct {
	// Kind is "native" (default when empty) or "calibrated".
	Kind string
	// Calibration supplies the calibrated backend's cost constants;
	// nil means DefaultCalibration().
	Calibration *Calibration
}

// kind resolves the spec's kind with the native default.
func (spec BackendSpec) kind() string {
	if spec.Kind == "" {
		return BackendNative
	}
	return spec.Kind
}

// Validate checks the spec without building anything. Parameters that the
// selected kind would ignore are rejected rather than dropped: a
// calibration attached to a native backend is a misconfiguration the caller
// must hear about, not a silently different cost model.
func (spec BackendSpec) Validate() error {
	switch spec.kind() {
	case BackendNative:
		if spec.Calibration != nil {
			return fmt.Errorf("engine: calibration given but backend is %q (want calibrated)", spec.kind())
		}
		return nil
	case BackendCalibrated:
		if spec.Calibration != nil {
			return spec.Calibration.Validate()
		}
		return nil
	default:
		return fmt.Errorf("engine: unknown backend kind %q (have %v)", spec.Kind, BackendKinds())
	}
}

// calibration resolves the calibrated backend's constants with the default.
func (spec BackendSpec) calibration() *Calibration {
	if spec.Calibration == nil {
		return DefaultCalibration()
	}
	return spec.Calibration
}

// env derives the environment a generation plans against under the spec
// (Optimize/Explain, what-if sessions) from its native one (schema + stats +
// base config + join switches): the calibrated backend substitutes its cost
// constants, the native one keeps the native env.
func (spec BackendSpec) env(native *optimizer.Env) *optimizer.Env {
	if spec.kind() != BackendCalibrated {
		return native
	}
	cenv := *native
	cenv.Params = spec.calibration().Params()
	return &cenv
}

// info describes the spec's backend for humans (Describe output, serve
// /schema).
func (spec BackendSpec) info() BackendInfo {
	if spec.kind() != BackendCalibrated {
		return BackendInfo{Kind: BackendNative, Description: "built-in optimizer + INUM cache (default cost constants)"}
	}
	cal := spec.calibration()
	return BackendInfo{Kind: BackendCalibrated, Description: fmt.Sprintf("analytical model calibrated as %q (seq=%g random=%g cpu_tuple=%g)",
		cal.Name, cal.SeqPageCost, cal.RandomPageCost, cal.CPUTupleCost)}
}
