package designer

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/engine"
)

// Backend kinds selectable through BackendSpec.Kind. The designer's
// portability pillar: the same design algorithms run on top of any of
// these cost models. The facade is the one place the kinds are named: the
// engine takes a calibration (calibrated, live) or none (native).
const (
	BackendNative     = "native"     // built-in optimizer + INUM cache (default)
	BackendCalibrated = "calibrated" // analytical model with JSON-loaded cost constants
	BackendLive       = "live"       // calibrated from a live PostgreSQL server's own planner settings
)

// BackendKinds lists the selectable backend kinds in canonical order.
func BackendKinds() []string {
	return []string{BackendNative, BackendCalibrated, BackendLive}
}

// CalibrationParams are inline cost constants for the calibrated backend —
// the in-memory form of the calibration file (PostgreSQL GUC semantics).
// Zero values keep the built-in profile's constant.
type CalibrationParams struct {
	Name                    string
	SeqPageCost             float64
	RandomPageCost          float64
	CPUTupleCost            float64
	CPUIndexTupleCost       float64
	CPUOperatorCost         float64
	EffectiveCacheSizePages float64
}

// internal merges the params over the built-in profile.
func (c CalibrationParams) internal() *engine.Calibration {
	cal := engine.DefaultCalibration()
	if c.Name != "" {
		cal.Name = c.Name
	}
	set := func(dst *float64, v float64) {
		if v != 0 {
			*dst = v
		}
	}
	set(&cal.SeqPageCost, c.SeqPageCost)
	set(&cal.RandomPageCost, c.RandomPageCost)
	set(&cal.CPUTupleCost, c.CPUTupleCost)
	set(&cal.CPUIndexTupleCost, c.CPUIndexTupleCost)
	set(&cal.CPUOperatorCost, c.CPUOperatorCost)
	set(&cal.EffectiveCacheSizePages, c.EffectiveCacheSizePages)
	return cal
}

// BackendSpec selects and parameterizes the cost backend a designer prices
// through. The zero value is the native backend.
type BackendSpec struct {
	// Kind is "native" (default when empty), "calibrated", or "live".
	Kind string
	// CalibrationFile points at a JSON cost-constant file for the
	// calibrated backend (see the README's "Portability & backends" section
	// for the format). Empty selects the built-in SSD-era profile.
	CalibrationFile string
	// Calibration supplies inline cost constants when no file is given.
	Calibration *CalibrationParams
	// DSN connects the live backend to a PostgreSQL server whose planner
	// settings fit the cost constants (resolves to a calibrated backend).
	DSN string
	// LiveTraceFile points the live backend at a recorded livedb trace
	// instead of a server — the offline half of live record/replay.
	LiveTraceFile string
}

// internal resolves the spec — loading a calibration file or fitting a live
// server's constants — into the engine's backend spec: the native backend
// is no calibration, the calibrated and live ones are the calibration they
// name. It refuses an unknown kind and parameters the selected kind would
// ignore instead of dropping them; the engine validates the calibration.
func (spec BackendSpec) internal() (engine.BackendSpec, error) {
	kind := cmp.Or(spec.Kind, BackendNative)
	calibration := spec.CalibrationFile != "" || spec.Calibration != nil
	var cal *engine.Calibration
	var err error
	switch {
	case !slices.Contains(BackendKinds(), kind):
		return engine.BackendSpec{}, fmt.Errorf("designer: unknown backend kind %q (have %v)", spec.Kind, BackendKinds())
	case kind != BackendLive && (spec.DSN != "" || spec.LiveTraceFile != ""):
		return engine.BackendSpec{}, fmt.Errorf("designer: DSN or live trace given but backend is %q (want %q)", kind, BackendLive)
	case kind == BackendLive && calibration:
		return engine.BackendSpec{}, errors.New("designer: calibration given but the live backend fits its own from the server")
	case kind == BackendNative && calibration:
		return engine.BackendSpec{}, fmt.Errorf("designer: calibration given but backend is %q (want %q)", kind, BackendCalibrated)
	case kind == BackendNative:
		return engine.BackendSpec{}, nil
	case kind == BackendLive:
		// "live" is sugar for a calibrated backend whose constants come from
		// the server (or a recorded trace) instead of a file.
		cal, err = liveCalibration(spec)
	case spec.CalibrationFile != "":
		cal, err = engine.LoadCalibration(spec.CalibrationFile)
	case spec.Calibration != nil:
		cal = spec.Calibration.internal()
	default:
		cal = engine.DefaultCalibration()
	}
	return engine.BackendSpec{Calibration: cal}, err
}

// inherit reports whether the spec leaves the backend choice entirely to
// its surroundings (a zero value). An explicit Kind — even "native" — is a
// choice, not an inheritance: a session asking for "native" on a
// calibrated designer gets a native backend, not the calibrated one.
func (spec BackendSpec) inherit() bool {
	return spec.Kind == "" && spec.CalibrationFile == "" &&
		spec.Calibration == nil && spec.DSN == "" && spec.LiveTraceFile == ""
}

// BackendInfo describes an active cost backend.
type BackendInfo struct {
	// Kind is the backend kind ("native", "calibrated").
	Kind string
	// Description is a human-readable parameter summary.
	Description string
}

// backendInfoFromInternal describes an engine backend for humans (Describe
// output, serve /schema): no calibration is the native backend, a
// calibration — from a file, inline or fitted live — the calibrated one.
func backendInfoFromInternal(spec engine.BackendSpec) BackendInfo {
	cal := spec.Calibration
	if cal == nil {
		return BackendInfo{Kind: BackendNative, Description: "built-in optimizer + INUM cache (default cost constants)"}
	}
	return BackendInfo{Kind: BackendCalibrated, Description: fmt.Sprintf("analytical model calibrated as %q (seq=%g random=%g cpu_tuple=%g)",
		cal.Name, cal.SeqPageCost, cal.RandomPageCost, cal.CPUTupleCost)}
}

// Option configures a designer at open time (OpenSDSS, NewFromDDL, OpenLive,
// OpenLiveTrace).
type Option func(*openOptions)

type openOptions struct {
	spec    BackendSpec
	backend bool // WithBackend was given
	record  bool
}

// WithBackend selects the cost backend the designer prices through. A live
// designer (OpenLive, OpenLiveTrace) fits its own and refuses it.
func WithBackend(spec BackendSpec) Option {
	return func(o *openOptions) { o.spec, o.backend = spec, true }
}

// WithRecording makes a live designer (OpenLive, OpenLiveTrace) record its
// wire traffic, for a later WriteLiveTrace. A designer over a generated or
// DDL-defined store has no server to record and refuses it.
func WithRecording() Option {
	return func(o *openOptions) { o.record = true }
}

// Backend reports the designer's active cost backend.
func (d *Designer) Backend() BackendInfo {
	return backendInfoFromInternal(d.eng.Pin().Backend())
}
