// Command dbdesigner is the terminal front-end of the automated,
// interactive and portable DB designer — the demo driver for the paper's
// three scenarios over the synthetic SDSS dataset, plus a service mode
// that exposes the designer as a JSON-over-HTTP API.
//
// Usage:
//
//	dbdesigner <command> [flags]
//
// Commands:
//
//	advise        Scenario 2: automatic indexes + partitions + schedule
//	whatif        Scenario 1: evaluate a manually specified design
//	online        Scenario 3: continuous tuning over a drifting stream
//	tune          Scenario 3 with the autopilot: builds, probation, rollback
//	serve         run the designer as a JSON-over-HTTP service
//	interactions  render the index-interaction graph (Figure 2)
//	partition     automatic partition suggestion panel (Figure 3)
//	explain       plan one query under the current design
//	bench         run the experiment harness, emit BENCH_<label>.json
//	              (--experiments cophy_vs_greedy: CoPhy vs greedy and the
//	              exhaustive optimum across storage budgets)
//	generate      describe the synthetic SDSS dataset
//	import        snapshot a live PostgreSQL database and import its workload
//	apply         advise on a live workload and apply the result to the server
//
// The live commands take --dsn (a PostgreSQL connection string) or
// --live-trace (a recorded replay of a live session); --live-record
// captures the session for offline replay, and apply supports --dry-run.
//
// All commands accept --size (tiny|small|medium) and --seed; the dataset is
// regenerated deterministically per invocation (the store is in-memory).
// Cost-backend selection is shared too: --backend native|calibrated, and
// --calibration <json> for calibrated constants.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/designer"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "advise":
		err = cmdAdvise(args)
	case "whatif":
		err = cmdWhatIf(args)
	case "online":
		err = cmdOnline(args)
	case "tune":
		err = cmdTune(args)
	case "serve":
		err = cmdServe(args)
	case "interactions":
		err = cmdInteractions(args)
	case "partition":
		err = cmdPartition(args)
	case "explain":
		err = cmdExplain(args)
	case "bench":
		err = cmdBench(args, os.Stdout, os.Stderr)
	case "generate":
		err = cmdGenerate(args)
	case "import":
		err = cmdImport(args)
	case "apply":
		err = cmdApply(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dbdesigner: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbdesigner: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `dbdesigner — automated, interactive, portable DB designer (SIGMOD'10 demo)

Commands:
  advise        Scenario 2: automatic indexes + partitions + schedule
  whatif        Scenario 1: evaluate a manually specified design
  online        Scenario 3: continuous tuning over a drifting stream
  tune          Scenario 3 with the autopilot: builds, probation, rollback
  serve         run the designer as a JSON-over-HTTP service
  interactions  render the index-interaction graph (Figure 2)
  partition     automatic partition suggestion panel (Figure 3)
  explain       plan one query under the current design
  bench         run the experiment harness, emit BENCH_<label>.json
                (--experiments cophy_vs_greedy: CoPhy vs greedy and the
                exhaustive optimum across storage budgets)
  generate      describe the synthetic SDSS dataset
  import        snapshot a live PostgreSQL database and import its workload
  apply         advise on a live workload and apply the result to the server

Run 'dbdesigner <command> -h' for command flags.
`)
}

// dataFlags are the dataset + cost-backend flags shared by all commands.
type dataFlags struct {
	size    *string
	seed    *int64
	queries *int

	backend     *string
	calibration *string
}

// commonFlags registers the shared flags.
func commonFlags(fs *flag.FlagSet) *dataFlags {
	return &dataFlags{
		size:    fs.String("size", "small", "dataset size: tiny|small|medium"),
		seed:    fs.Int64("seed", 1, "deterministic data/workload seed"),
		queries: fs.Int("queries", 24, "number of workload queries"),
		backend: fs.String("backend", "native",
			"cost backend: "+strings.Join(designer.BackendKinds(), "|")),
		calibration: fs.String("calibration", "",
			"JSON cost-constant file for --backend calibrated (empty = built-in SSD profile)"),
	}
}

// spec assembles the backend selection from the parsed flags.
func (f *dataFlags) spec() designer.BackendSpec {
	return designer.BackendSpec{
		Kind:            *f.backend,
		CalibrationFile: *f.calibration,
	}
}

// open generates the dataset and opens the designer over it with the
// selected backend.
func (f *dataFlags) open() (*designer.Designer, error) {
	fmt.Fprintf(os.Stderr, "generating %s SDSS dataset (seed %d, backend %s)...\n",
		*f.size, *f.seed, *f.backend)
	return designer.OpenSDSS(*f.size, *f.seed, designer.WithBackend(f.spec()))
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	df := commonFlags(fs)
	emit := fs.Bool("emit-workload", false, "print the generated workload as a SQL script instead of the table summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := df.open()
	if err != nil {
		return err
	}
	if *emit {
		w, err := d.GenerateWorkload(*df.seed+1, *df.queries)
		if err != nil {
			return err
		}
		for _, q := range w.Queries() {
			fmt.Printf("-- %s\n%s;\n", q.ID(), q.SQL())
		}
		return nil
	}
	info := d.Describe()
	fmt.Printf("backend: %s (%s)\n", info.Backend.Kind, info.Backend.Description)
	fmt.Println("tables:")
	for _, t := range info.Tables {
		fmt.Printf("  %-10s %8d rows %6d pages %3d columns (row width %d bytes)\n",
			t.Name, t.RowCount, t.Pages, len(t.Columns), t.RowWidthBytes)
	}
	return nil
}
