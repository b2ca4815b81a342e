package designer

import (
	"errors"
	"fmt"

	"repro/internal/engine"
)

// Backend kinds selectable through BackendSpec.Kind. The designer's
// portability pillar: the same design algorithms run on top of any of
// these cost models.
const (
	BackendNative     = "native"     // built-in optimizer + INUM cache (default)
	BackendCalibrated = "calibrated" // analytical model with JSON-loaded cost constants
	BackendReplay     = "replay"     // serves recorded costing calls from a trace
	BackendLive       = "live"       // calibrated from a live PostgreSQL server's own planner settings
)

// BackendKinds lists the selectable backend kinds in canonical order.
func BackendKinds() []string {
	return []string{BackendNative, BackendCalibrated, BackendReplay, BackendLive}
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
	// Kind is "native" (default when empty), "calibrated", or "replay".
	Kind string
	// CalibrationFile points at a JSON cost-constant file for the
	// calibrated backend (see the README's "Portability & backends" section
	// for the format). Empty selects the built-in SSD-era profile.
	CalibrationFile string
	// Calibration supplies inline cost constants when no file is given.
	Calibration *CalibrationParams
	// TraceFile points at a recorded costing trace for the replay backend.
	TraceFile string
	// DSN connects the live backend to a PostgreSQL server whose planner
	// settings fit the cost constants (resolves to a calibrated backend).
	DSN string
	// LiveTraceFile points the live backend at a recorded livedb trace
	// instead of a server — the offline half of live record/replay.
	LiveTraceFile string
}

// internal resolves the spec — loading calibration/trace files — into the
// engine's backend spec.
func (spec BackendSpec) internal() (engine.BackendSpec, error) {
	if spec.Kind == BackendLive {
		// "live" is sugar for a calibrated backend whose constants come from
		// the server (or a recorded trace) instead of a file.
		cal, err := liveCalibration(spec)
		if err != nil {
			return engine.BackendSpec{}, err
		}
		out := engine.BackendSpec{Kind: BackendCalibrated, Calibration: cal}
		if err := out.Validate(); err != nil {
			return engine.BackendSpec{}, err
		}
		return out, nil
	}
	out := engine.BackendSpec{Kind: spec.Kind}
	switch {
	case spec.CalibrationFile != "":
		cal, err := engine.LoadCalibration(spec.CalibrationFile)
		if err != nil {
			return engine.BackendSpec{}, err
		}
		out.Calibration = cal
	case spec.Calibration != nil:
		out.Calibration = spec.Calibration.internal()
	}
	if spec.TraceFile != "" {
		trace, err := engine.LoadTrace(spec.TraceFile)
		if err != nil {
			return engine.BackendSpec{}, err
		}
		out.Trace = trace
	}
	if err := out.Validate(); err != nil {
		return engine.BackendSpec{}, err
	}
	return out, nil
}

// IsNative reports whether the spec resolves to the default native backend
// with no extra parameters.
func (spec BackendSpec) IsNative() bool {
	return (spec.Kind == "" || spec.Kind == BackendNative) &&
		spec.CalibrationFile == "" && spec.Calibration == nil && spec.TraceFile == "" &&
		spec.DSN == "" && spec.LiveTraceFile == ""
}

// inherit reports whether the spec leaves the backend choice entirely to
// its surroundings (a zero value). An explicit Kind — even "native" — is a
// choice, not an inheritance: a session asking for "native" on a
// calibrated designer gets a native backend, not the calibrated one.
func (spec BackendSpec) inherit() bool {
	return spec.Kind == "" && spec.CalibrationFile == "" &&
		spec.Calibration == nil && spec.TraceFile == "" &&
		spec.DSN == "" && spec.LiveTraceFile == ""
}

// BackendInfo describes an active cost backend.
type BackendInfo struct {
	// Kind is the backend kind ("native", "calibrated", "replay").
	Kind string
	// Description is a human-readable parameter summary.
	Description string
}

func backendInfoFromInternal(info engine.BackendInfo) BackendInfo {
	return BackendInfo{Kind: info.Kind, Description: info.Description}
}

// Option configures a designer at open time (OpenSDSS, NewFromDDL).
type Option func(*openOptions)

type openOptions struct {
	spec   BackendSpec
	record bool
}

// WithBackend selects the cost backend the designer prices through.
func WithBackend(spec BackendSpec) Option {
	return func(o *openOptions) { o.spec = spec }
}

// WithRecording captures every costing call the designer's backend serves,
// for a later WriteTrace — the record half of the record/replay portability
// workflow. Recording composes with any backend.
func WithRecording() Option {
	return func(o *openOptions) { o.record = true }
}

// resolve builds the engine backend spec (and optional recorder) from the
// collected options.
func (o *openOptions) resolve() (engine.BackendSpec, *engine.Recorder, error) {
	espec, err := o.spec.internal()
	if err != nil {
		return engine.BackendSpec{}, nil, err
	}
	var rec *engine.Recorder
	if o.record {
		rec = engine.NewRecorder()
		espec.Recorder = rec
	}
	return espec, rec, nil
}

// Backend reports the designer's active cost backend.
func (d *Designer) Backend() BackendInfo {
	return backendInfoFromInternal(d.eng.Pin().Backend())
}

// WriteTrace saves every costing call recorded so far (the designer must
// have been opened with WithRecording) as a replay trace. The file can back
// a replay-backend designer on a machine with no dataset at all.
func (d *Designer) WriteTrace(path string) error {
	if d.recorder == nil {
		return errors.New("designer: not recording; open with designer.WithRecording()")
	}
	if d.recorder.Len() == 0 {
		return errors.New("designer: no costing calls recorded yet")
	}
	if err := d.recorder.WriteFile(path); err != nil {
		return fmt.Errorf("designer: write trace: %w", err)
	}
	return nil
}
