package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the BENCH_*.json document layout. Bump it on
// any incompatible change so baseline tooling can refuse to compare across
// layouts. Version 2 carries no machine-local field (version 1 had an env
// header and per-cell timings): wall-clock questions belong to benchmark/
// (BENCHMARK.json).
const SchemaVersion = 2

// Result is one harness run: the answer document serialized to
// BENCH_<label>.json. It is a pure function of (spec, seed) — two runs on
// any machines render byte-identical JSON, so a committed baseline can be
// regenerated in place and checked by `go test`.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	Label         string `json:"label"`
	Profile       string `json:"profile"`
	// Backend is the cost backend the suite priced through; empty in
	// documents written before backends existed and means "native".
	Backend     string       `json:"backend,omitempty"`
	Experiments []Experiment `json:"experiments"`
}

// BackendOrNative normalizes the pre-backend document form.
func (r *Result) BackendOrNative() string {
	if r.Backend == "" {
		return "native"
	}
	return r.Backend
}

// Experiment is one cell of the matrix: an experiment name run at one
// (size, workload profile, seed) point.
type Experiment struct {
	Name     string `json:"name"`
	Size     string `json:"size"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Quality holds deterministic design-quality metrics (improvement
	// percentages, optimality gaps, cost ratios, savings).
	Quality map[string]float64 `json:"quality,omitempty"`
	// Counts holds deterministic cardinalities (queries, candidates,
	// advised indexes, epochs, solver nodes).
	Counts map[string]int64 `json:"counts,omitempty"`
}

// key identifies an experiment cell for baseline matching.
func (x Experiment) key() string {
	return fmt.Sprintf("%s|%s|%s|%d", x.Name, x.Size, x.Workload, x.Seed)
}

// JSON renders the document, indented, with a trailing newline.
func (r *Result) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Validate checks the document against the schema: version match, non-empty
// label and experiment list, and complete experiment cells with at least
// one deterministic metric each.
func (r *Result) Validate() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: schema_version %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	if r.Label == "" {
		return errors.New("bench: empty label")
	}
	if len(r.Experiments) == 0 {
		return errors.New("bench: no experiments")
	}
	seen := map[string]bool{}
	for i, x := range r.Experiments {
		if x.Name == "" || x.Size == "" || x.Workload == "" {
			return fmt.Errorf("bench: experiment %d incomplete: %+v", i, x)
		}
		if len(x.Quality) == 0 && len(x.Counts) == 0 {
			return fmt.Errorf("bench: experiment %s has no deterministic metrics", x.key())
		}
		if seen[x.key()] {
			return fmt.Errorf("bench: duplicate experiment cell %s", x.key())
		}
		seen[x.key()] = true
	}
	return nil
}

// WriteFile validates and writes the document to path.
func (r *Result) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return err
	}
	b, err := r.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadResult loads and validates a BENCH_*.json document.
func ReadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Finding severities. Errors fail `bench --baseline`: the two documents are
// not comparable (schema or backend mismatch), the current run lost a cell
// or metric the baseline had, a count changed, or a quality metric drifted
// beyond tolerance — nothing in the document is machine-local, so any of
// these is a changed answer. A cell only the current run has is a warning:
// new coverage is not a regression.
const (
	SeverityError = "error"
	SeverityWarn  = "warn"
)

// Warning is one baseline-comparison finding.
type Warning struct {
	Severity string // SeverityError or SeverityWarn
	Cell     string
	Message  string
}

func (w Warning) String() string { return w.Cell + ": " + w.Message }

// Errors filters the error-severity findings.
func Errors(warns []Warning) []Warning {
	var out []Warning
	for _, w := range warns {
		if w.Severity == SeverityError {
			out = append(out, w)
		}
	}
	return out
}

// Compare diffs a new result against a baseline. Quality metrics that drift
// by more than qualityTolPct percent (relative), counts that differ at all,
// and baseline cells or metrics missing from the current run are errors;
// cells only the current run has are warnings. A nil/empty return means the
// run reproduces the baseline.
func Compare(baseline, current *Result, qualityTolPct float64) []Warning {
	var warns []Warning
	if baseline.SchemaVersion != current.SchemaVersion {
		return []Warning{{Severity: SeverityError, Cell: "schema", Message: fmt.Sprintf(
			"schema_version %d vs baseline %d — not comparable",
			current.SchemaVersion, baseline.SchemaVersion)}}
	}
	if baseline.BackendOrNative() != current.BackendOrNative() {
		return []Warning{{Severity: SeverityError, Cell: "backend", Message: fmt.Sprintf(
			"cost backend %q vs baseline %q — absolute costs are not comparable across backends",
			current.BackendOrNative(), baseline.BackendOrNative())}}
	}
	base := map[string]Experiment{}
	for _, x := range baseline.Experiments {
		base[x.key()] = x
	}
	cur := map[string]Experiment{}
	for _, x := range current.Experiments {
		cur[x.key()] = x
	}
	var keys []string
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := base[k]
		c, ok := cur[k]
		if !ok {
			warns = append(warns, Warning{Severity: SeverityError, Cell: k,
				Message: "present in baseline, missing from current run — coverage regressed"})
			continue
		}
		warns = append(warns, compareQuality(k, b.Quality, c.Quality, qualityTolPct)...)
		warns = append(warns, compareCounts(k, b.Counts, c.Counts)...)
	}
	var curKeys []string
	for k := range cur {
		if _, ok := base[k]; !ok {
			curKeys = append(curKeys, k)
		}
	}
	sort.Strings(curKeys)
	for _, k := range curKeys {
		warns = append(warns, Warning{Severity: SeverityWarn, Cell: k, Message: "new experiment cell (no baseline)"})
	}
	return warns
}

func compareQuality(cell string, base, cur map[string]float64, tolPct float64) []Warning {
	var warns []Warning
	for _, m := range SortedKeys(base) {
		bv := base[m]
		cv, ok := cur[m]
		if !ok {
			warns = append(warns, Warning{Severity: SeverityError, Cell: cell, Message: fmt.Sprintf("quality metric %s missing", m)})
			continue
		}
		denom := bv
		if denom < 0 {
			denom = -denom
		}
		if denom < 1e-9 {
			denom = 1e-9
		}
		driftPct := (cv - bv) / denom * 100
		if driftPct > tolPct || driftPct < -tolPct {
			warns = append(warns, Warning{Severity: SeverityError, Cell: cell, Message: fmt.Sprintf(
				"quality %s drifted %+.1f%% (baseline %v, current %v)", m, driftPct, bv, cv)})
		}
	}
	return warns
}

func compareCounts(cell string, base, cur map[string]int64) []Warning {
	var warns []Warning
	for _, m := range SortedKeys(base) {
		bv := base[m]
		cv, ok := cur[m]
		if !ok {
			warns = append(warns, Warning{Severity: SeverityError, Cell: cell, Message: fmt.Sprintf("count %s missing", m)})
			continue
		}
		if cv != bv {
			warns = append(warns, Warning{Severity: SeverityError, Cell: cell, Message: fmt.Sprintf(
				"count %s changed: baseline %d, current %d", m, bv, cv)})
		}
	}
	return warns
}

// SortedKeys returns a map's string keys in sorted order — metric maps are
// always rendered and compared in this canonical order.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CellSpec is one parsed --assert expression: an experiment that must be
// present in the document, optionally with a metric condition every cell
// of that experiment must satisfy.
type CellSpec struct {
	// Name is the experiment name ("design_space_width").
	Name string
	// Metric is a Counts or Quality key; empty asserts presence only.
	Metric string
	// Op is "=", ">=", or "<=" (only when Metric is set).
	Op string
	// Value is the right-hand side of the condition.
	Value float64
}

// ParseCellSpec parses one assertion expression:
//
//	name                  at least one cell of that experiment ran
//	name:metric=V         ...and metric equals V in every such cell
//	name:metric>=V, <=V   ...or satisfies the bound instead
//
// metric is looked up in the cell's Counts first, then Quality.
func ParseCellSpec(s string) (CellSpec, error) {
	name, cond, hasCond := strings.Cut(s, ":")
	spec := CellSpec{Name: strings.TrimSpace(name)}
	if spec.Name == "" {
		return CellSpec{}, fmt.Errorf("bench: empty experiment name in assertion %q", s)
	}
	if !hasCond {
		return spec, nil
	}
	for _, op := range []string{">=", "<=", "="} {
		if metric, val, ok := strings.Cut(cond, op); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return CellSpec{}, fmt.Errorf("bench: bad value in assertion %q: %w", s, err)
			}
			spec.Metric, spec.Op, spec.Value = strings.TrimSpace(metric), op, v
			if spec.Metric == "" {
				return CellSpec{}, fmt.Errorf("bench: empty metric in assertion %q", s)
			}
			return spec, nil
		}
	}
	return CellSpec{}, fmt.Errorf("bench: assertion %q needs metric=V, metric>=V, or metric<=V after ':'", s)
}

func (c CellSpec) holds(v float64) bool {
	switch c.Op {
	case ">=":
		return v >= c.Value
	case "<=":
		return v <= c.Value
	default:
		return v == c.Value
	}
}

// RequireCells checks assertion expressions (see ParseCellSpec) against a
// result document — the typed replacement for grepping BENCH_*.json in CI.
// Every failing assertion is reported, not just the first; a nil error
// means the document satisfies all of them.
func RequireCells(r *Result, specs []string) error {
	var errs []string
	for _, raw := range specs {
		spec, err := ParseCellSpec(raw)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		matched := 0
		for _, x := range r.Experiments {
			if x.Name != spec.Name {
				continue
			}
			matched++
			if spec.Metric == "" {
				continue
			}
			v, ok := float64(0), false
			if cv, has := x.Counts[spec.Metric]; has {
				v, ok = float64(cv), true
			} else if qv, has := x.Quality[spec.Metric]; has {
				v, ok = qv, true
			}
			if !ok {
				errs = append(errs, fmt.Sprintf("%s [%s]: metric %s missing", spec.Name, x.key(), spec.Metric))
				continue
			}
			if !spec.holds(v) {
				errs = append(errs, fmt.Sprintf("%s [%s]: %s is %g, want %s%g",
					spec.Name, x.key(), spec.Metric, v, spec.Op, spec.Value))
			}
		}
		if matched == 0 {
			errs = append(errs, fmt.Sprintf("no %s cells in the document", spec.Name))
		}
	}
	if len(errs) > 0 {
		return errors.New("bench: assertion(s) failed:\n  " + strings.Join(errs, "\n  "))
	}
	return nil
}
