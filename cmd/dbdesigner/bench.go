package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/workload"
)

// cmdBench runs the deterministic experiment suite (internal/bench) and
// emits the answer document BENCH_<label>.json. It times nothing: latency
// questions go to `bash benchmark/run.sh`.
func cmdBench(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	profile := fs.String("profile", "smoke", "suite profile: smoke|quick|full")
	backend := fs.String("backend", "", "cost backend for the whole suite: native|calibrated (default native)")
	calibration := fs.String("calibration", "", "JSON cost-constant file for --backend calibrated")
	sizes := fs.String("sizes", "", "comma-separated dataset sizes (tiny|small|medium); overrides the profile")
	seed := fs.Int64("seed", 0, "single dataset seed; overrides the profile when set")
	seeds := fs.String("seeds", "", "comma-separated dataset seeds; overrides --seed")
	workloads := fs.String("workloads", "", "comma-separated workload profiles ("+strings.Join(workload.ProfileNames(), "|")+"); overrides the profile")
	experiments := fs.String("experiments", "", "comma-separated experiments ("+strings.Join(bench.ExperimentNames(), "|")+"); overrides the profile")
	queries := fs.Int("queries", 0, "workload queries per matrix cell; overrides the profile")
	label := fs.String("label", "", "output label (default: the profile name)")
	out := fs.String("out", ".", "directory for BENCH_<label>.json")
	jsonOut := fs.Bool("json", false, "print the JSON document to stdout instead of the table")
	baseline := fs.String("baseline", "", "baseline BENCH_*.json the run must reproduce (changed or missing cells fail the run)")
	var asserts multiFlag
	fs.Var(&asserts, "assert",
		"require an experiment cell, optionally with a metric condition "+
			"(name, name:metric=V, name:metric>=V, name:metric<=V); repeatable, hard-fails the run")
	quiet := fs.Bool("q", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := bench.SpecForProfile(*profile)
	if err != nil {
		return err
	}
	// Detect explicitly passed flags: 0 is a legitimate seed, so presence —
	// not value — decides whether --seed overrides the profile.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *sizes != "" {
		spec.Sizes = splitCSV(*sizes)
	}
	if set["seed"] {
		spec.Seeds = []int64{*seed}
	}
	if *seeds != "" {
		spec.Seeds = nil
		for _, s := range splitCSV(*seeds) {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed %q", s)
			}
			spec.Seeds = append(spec.Seeds, v)
		}
	}
	if *workloads != "" {
		spec.Workloads = splitCSV(*workloads)
	}
	if *experiments != "" {
		spec.Experiments = splitCSV(*experiments)
	}
	if *queries > 0 {
		spec.Queries = *queries
	}
	if *backend != "" {
		spec.Backend = *backend
	}
	spec.CalibrationFile = *calibration
	if *label != "" {
		spec.Label = *label
	} else if spec.Backend != "" && spec.Backend != "native" {
		// Per-backend documents get distinguishable names by default:
		// BENCH_smoke_calibrated.json next to BENCH_smoke.json.
		spec.Label = spec.Profile + "_" + spec.Backend
	}

	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	if *quiet {
		logf = nil
	}
	res, err := bench.Run(spec, logf)
	if err != nil {
		return err
	}
	path := filepath.Join(*out, "BENCH_"+spec.Label+".json")
	if err := res.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s (%d experiment cells)\n", path, len(res.Experiments))

	if *jsonOut {
		b, err := res.JSON()
		if err != nil {
			return err
		}
		if _, err := stdout.Write(b); err != nil {
			return err
		}
	} else {
		printBenchTable(stdout, res)
	}

	// The comparison goes to stderr so that `--json > file` still captures
	// a clean document. Nothing in the document is machine-local, so every
	// error-severity finding — schema or backend mismatch, a baseline cell or
	// metric missing from this run, a changed count, quality drift beyond
	// tolerance — fails the command; only cells new in this run warn.
	if *baseline != "" {
		base, err := bench.ReadResult(*baseline)
		if err != nil {
			// A baseline that cannot be read is a hard error, not a skipped
			// comparison: CI invokes --baseline precisely to be gated, and a
			// typo'd path silently exiting 0 would disable the gate.
			return fmt.Errorf("baseline %s is missing or unreadable: %w", *baseline, err)
		}
		warns := bench.Compare(base, res, 5.0)
		for _, w := range warns {
			tag := "WARN"
			if w.Severity == bench.SeverityError {
				tag = "ERROR"
			}
			fmt.Fprintf(stderr, "%s %s\n", tag, w)
		}
		if errs := bench.Errors(warns); len(errs) != 0 {
			return fmt.Errorf("baseline %s: %d cell(s) differ (schema/backend/coverage/counts/quality); see stderr", *baseline, len(errs))
		}
		fmt.Fprintf(stderr, "baseline %s: no quality drift (tol 5%%), counts identical\n", *baseline)
	}

	// --assert expressions are hard gates on the document just written —
	// the typed replacement for CI grepping BENCH_*.json.
	if len(asserts) > 0 {
		if err := bench.RequireCells(res, asserts); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "all %d assertion(s) hold\n", len(asserts))
	}
	return nil
}

// printBenchTable renders the result as a human-readable table: one row per
// metric, grouped by experiment cell.
func printBenchTable(w io.Writer, res *bench.Result) {
	fmt.Fprintf(w, "bench %s (schema v%d)\n", res.Label, res.SchemaVersion)
	for _, x := range res.Experiments {
		fmt.Fprintf(w, "\n%s  [size=%s workload=%s seed=%d]\n", x.Name, x.Size, x.Workload, x.Seed)
		for _, k := range bench.SortedKeys(x.Quality) {
			fmt.Fprintf(w, "  %-36s %14.4f\n", k, x.Quality[k])
		}
		for _, k := range bench.SortedKeys(x.Counts) {
			fmt.Fprintf(w, "  %-36s %14d\n", k, x.Counts[k])
		}
	}
}

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}
