package bench

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec is a minimal, fast matrix for unit tests.
func testSpec() Spec {
	return Spec{
		Label:       "test",
		Profile:     "smoke",
		Sizes:       []string{"tiny"},
		Seeds:       []int64{1},
		Workloads:   []string{"uniform"},
		Experiments: CoreExperiments,
		Queries:     12,
		StreamLen:   50,
		EpochLen:    25,
	}
}

func TestRunProducesValidatedResult(t *testing.T) {
	res, err := Run(testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Experiments) != len(CoreExperiments) {
		t.Fatalf("got %d experiments, want %d", len(res.Experiments), len(CoreExperiments))
	}
	byName := map[string]Experiment{}
	for _, x := range res.Experiments {
		byName[x.Name] = x
	}
	if _, ok := byName["inum_vs_optimizer"].Quality["costings_per_optimizer_call"]; !ok {
		t.Error("inum_vs_optimizer missing calls-avoided ratio")
	}
	if v, ok := byName["parallel_scaling"].Quality["w16_sweep_max_abs_diff"]; !ok || v != 0 {
		t.Errorf("parallel sweep parity broken: max diff %v (recorded: %v)", v, ok)
	}
	if byName["cophy_vs_greedy"].Quality["budget100_gap_pct"] > 1e-9 {
		t.Errorf("unlimited-node CoPhy should prove optimality, gap %v",
			byName["cophy_vs_greedy"].Quality["budget100_gap_pct"])
	}
	if byName["colt_convergence"].Counts["queries"] != 50 {
		t.Errorf("colt stream length = %d, want 50", byName["colt_convergence"].Counts["queries"])
	}
	port := byName["backend_portability"]
	if port.Counts["designs_agree"] != 1 {
		t.Errorf("native and calibrated designs disagree: cross penalty %v%%",
			port.Quality["cross_penalty_pct"])
	}
	if res.BackendOrNative() != "native" {
		t.Errorf("default suite backend = %q", res.BackendOrNative())
	}
}

// TestSmokeMatchesCommittedBaseline is the repo's central contract as a
// tier-1 test: the smoke document is a pure function of (spec, seed), so a
// fresh run must reproduce every quality and count cell of the committed
// baseline. A PR that moves an answer on purpose regenerates
// BENCH_baseline.json in the same change.
func TestSmokeMatchesCommittedBaseline(t *testing.T) {
	base, err := ReadResult("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(SmokeSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Tolerance 0: the contract is byte-identical cells, not "close".
	for _, w := range Compare(base, res, 0) {
		t.Errorf("%s: %s", w.Severity, w)
	}
}

func TestJSONIsByteStableAcrossRuns(t *testing.T) {
	a, err := Run(testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("JSON differs across identical runs:\n--- run1\n%s\n--- run2\n%s", aj, bj)
	}
}

func TestExhaustiveGroundTruthOnSmallCandidateSets(t *testing.T) {
	spec := testSpec()
	spec.Queries = 5 // few queries → enumerable candidate set
	spec.Experiments = []string{"cophy_vs_greedy"}
	res, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := res.Experiments[0]
	if x.Counts["candidates"] > 14 {
		t.Skipf("candidate set too large to enumerate (%d)", x.Counts["candidates"])
	}
	ratio, ok := x.Quality["budget50_optimal_ratio"]
	if !ok {
		t.Fatal("missing budget50_optimal_ratio despite enumerable candidates")
	}
	// CoPhy can never beat the exhaustive optimum; equal is expected when
	// the BIP is solved to optimality.
	if ratio < 0.999 {
		t.Errorf("cophy beat the exhaustive optimum? ratio %v", ratio)
	}
	if ratio > 1.05 {
		t.Errorf("cophy more than 5%% off the exhaustive optimum: ratio %v", ratio)
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	res, err := Run(testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := res.JSON()
	bj, _ := back.JSON()
	if !bytes.Equal(aj, bj) {
		t.Fatal("round-tripped result differs")
	}
}

func TestValidateRejectsBrokenDocuments(t *testing.T) {
	good := &Result{
		SchemaVersion: SchemaVersion,
		Label:         "x",
		Experiments: []Experiment{{
			Name: "e", Size: "tiny", Workload: "uniform",
			Counts: map[string]int64{"n": 1},
		}},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Result{
		"wrong version": {SchemaVersion: 99, Label: "x",
			Experiments: good.Experiments},
		"no label": {SchemaVersion: SchemaVersion,
			Experiments: good.Experiments},
		"no experiments": {SchemaVersion: SchemaVersion, Label: "x"},
		"no metrics": {SchemaVersion: SchemaVersion, Label: "x",
			Experiments: []Experiment{{Name: "e", Size: "tiny", Workload: "uniform"}}},
		"duplicate cell": {SchemaVersion: SchemaVersion, Label: "x",
			Experiments: append(append([]Experiment{}, good.Experiments...), good.Experiments...)},
	}
	for name, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate() passed, want error", name)
		}
	}
}

func TestCompareFlagsDriftAndRegressions(t *testing.T) {
	mk := func() *Result {
		return &Result{
			SchemaVersion: SchemaVersion,
			Label:         "x",
			Experiments: []Experiment{{
				Name: "e", Size: "tiny", Workload: "uniform", Seed: 1,
				Quality: map[string]float64{"improvement_pct": 50},
				Counts:  map[string]int64{"indexes": 4},
			}},
		}
	}
	base, cur := mk(), mk()
	if warns := Compare(base, cur, 1); len(warns) != 0 {
		t.Fatalf("identical results produced warnings: %v", warns)
	}
	cur.Experiments[0].Quality["improvement_pct"] = 40 // -20% drift
	cur.Experiments[0].Counts["indexes"] = 5
	warns := Compare(base, cur, 1)
	var msgs []string
	for _, w := range warns {
		msgs = append(msgs, w.String())
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{"improvement_pct drifted", "count indexes changed"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing warning %q in:\n%s", want, joined)
		}
	}
	if len(warns) != 2 {
		t.Errorf("got %d warnings, want 2: %v", len(warns), msgs)
	}

	// Cells present on only one side are reported.
	extra := mk()
	extra.Experiments = append(extra.Experiments, Experiment{
		Name: "new", Size: "tiny", Workload: "uniform",
		Counts: map[string]int64{"n": 1},
	})
	warns = Compare(base, extra, 1)
	if len(warns) != 1 || !strings.Contains(warns[0].String(), "new experiment cell") {
		t.Errorf("new-cell warning missing: %v", warns)
	}
	warns = Compare(extra, base, 1)
	if len(warns) != 1 || !strings.Contains(warns[0].String(), "missing from current run") {
		t.Errorf("missing-cell warning missing: %v", warns)
	}
}

// TestCompareSeverities pins the hard-fail contract of `bench --baseline`:
// schema-version mismatches, backend mismatches, coverage regressions and
// metric drift (quality, counts) are errors; new cells warn.
func TestCompareSeverities(t *testing.T) {
	mk := func() *Result {
		return &Result{
			SchemaVersion: SchemaVersion,
			Label:         "x",
			Experiments: []Experiment{{
				Name: "e", Size: "tiny", Workload: "uniform", Seed: 1,
				Quality: map[string]float64{"improvement_pct": 50},
				Counts:  map[string]int64{"indexes": 4},
			}},
		}
	}

	// Schema mismatch: single error, nothing else compared.
	base, cur := mk(), mk()
	cur.SchemaVersion = SchemaVersion + 1
	cur.Experiments[0].Quality["improvement_pct"] = 1 // would drift, must not be reached
	warns := Compare(base, cur, 1)
	if len(warns) != 1 || warns[0].Severity != SeverityError || !strings.Contains(warns[0].String(), "schema_version") {
		t.Fatalf("schema mismatch: %v", warns)
	}

	// Backend mismatch: error (absolute costs not comparable).
	base, cur = mk(), mk()
	cur.Backend = "calibrated"
	warns = Compare(base, cur, 1)
	if len(warns) != 1 || warns[0].Severity != SeverityError || !strings.Contains(warns[0].String(), "backend") {
		t.Fatalf("backend mismatch: %v", warns)
	}
	// "" and "native" are the same backend (pre-backend documents).
	base, cur = mk(), mk()
	cur.Backend = "native"
	if warns := Compare(base, cur, 1); len(warns) != 0 {
		t.Fatalf("native vs empty backend flagged: %v", warns)
	}

	// Coverage regression: error. Drift: error. New cell: warn.
	base, cur = mk(), mk()
	base.Experiments = append(base.Experiments, Experiment{
		Name: "gone", Size: "tiny", Workload: "uniform",
		Counts: map[string]int64{"n": 1},
	})
	cur.Experiments[0].Quality["improvement_pct"] = 40
	cur.Experiments = append(cur.Experiments, Experiment{
		Name: "fresh", Size: "tiny", Workload: "uniform",
		Counts: map[string]int64{"n": 1},
	})
	warns = Compare(base, cur, 1)
	var coverage, drift int
	for _, w := range Errors(warns) {
		switch {
		case strings.Contains(w.Message, "coverage regressed"):
			coverage++
		case strings.Contains(w.Message, "drifted"):
			drift++
		default:
			t.Errorf("unexpected error: %v", w)
		}
	}
	if coverage != 1 || drift != 1 {
		t.Fatalf("want one coverage error and one drift error: %v", warns)
	}
	for _, w := range warns {
		if w.Severity == SeverityWarn && !strings.Contains(w.Message, "new experiment cell") {
			t.Errorf("unexpected warn: %v", w)
		}
	}
	if len(warns) != 3 {
		t.Errorf("got %d findings, want 3 (coverage, drift, new cell): %v", len(warns), warns)
	}
}

// TestCalibratedSuiteRuns proves the whole experiment suite runs unchanged
// on the calibrated backend — the suite-level portability check CI runs per
// backend — and that the emitted document names its backend.
func TestCalibratedSuiteRuns(t *testing.T) {
	spec := testSpec()
	spec.Backend = "calibrated"
	spec.Experiments = []string{"inum_vs_optimizer", "parallel_scaling"}
	res, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "calibrated" {
		t.Fatalf("result backend = %q", res.Backend)
	}
	byName := map[string]Experiment{}
	for _, x := range res.Experiments {
		byName[x.Name] = x
	}
	if v, ok := byName["parallel_scaling"].Quality["w16_sweep_max_abs_diff"]; !ok || v != 0 {
		t.Errorf("parallel sweep parity broken under calibrated backend: %v (recorded: %v)", v, ok)
	}

	// A calibrated document never silently compares against a native
	// baseline.
	native, err := Run(testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	warns := Compare(native, res, 5)
	if len(Errors(warns)) == 0 {
		t.Fatal("calibrated-vs-native comparison did not error")
	}

	if _, err := Run(Spec{Backend: "replay"}, nil); err == nil {
		t.Fatal("an unknown suite backend should be rejected")
	}
}

func TestSpecForProfile(t *testing.T) {
	for _, name := range []string{"smoke", "quick", "full"} {
		spec, err := SpecForProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Profile != name {
			t.Errorf("profile %s resolved to %s", name, spec.Profile)
		}
	}
	if _, err := SpecForProfile("nope"); err == nil {
		t.Fatal("unknown profile should error")
	}
	spec := Spec{Experiments: []string{"nope"}}
	if _, err := Run(spec, nil); err == nil {
		t.Fatal("unknown experiment should error")
	}
}
