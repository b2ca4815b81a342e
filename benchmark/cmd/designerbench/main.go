// Command designerbench runs the repository's benchmark. Run it from the
// repository root through `bash benchmark/run.sh`, which builds it first.
//
//	bash benchmark/run.sh                                  every workload, untraced and traced
//	bash benchmark/run.sh --workload whatif_edit --trace 0 one untraced run; the last line is the result object
//	bash benchmark/run.sh --agree                          two sets of runs, checked against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/benchmark"
)

func main() {
	var o benchmark.Options
	workload := flag.String("workload", "all", "workload to run: all, "+strings.Join(benchmark.Workloads(), ", "))
	flag.Int64Var(&o.Seed, "seed", 1, "seed of the dataset and of every generated script")
	// The acceptance driver passes --seconds (BENCHMARK.json's run_seconds).
	flag.Float64Var(&o.Seconds, "seconds", 10, "length of the measured phase on the reference box; sets the number of laps, not a deadline")
	flag.Float64Var(&o.Scale, "scale", 1, "multiplies the answers per lap (0.02 is the smoke size)")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
	agree := flag.Bool("agree", false, "run two sets of runs back to back and check them against BENCHMARK.json's bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	o.OutDir = "benchmark/out"
	o.Log = os.Stdout

	if err := hygiene(o); err != nil {
		fail(err)
	}
	ctx := context.Background()
	if *agree {
		ok, err := runAgree(o)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	names := benchmark.Workloads()
	if *workload != "all" {
		names = []string{*workload}
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}
	var last *benchmark.Result
	failed := false
	for _, name := range names {
		for _, traced := range modes {
			o.Workload, o.Trace = name, traced
			res, err := benchmark.Run(ctx, o)
			if err != nil {
				fail(err)
			}
			last = res
			failed = failed || !res.Correct
		}
	}
	if len(names) == 1 && len(modes) == 1 {
		// The one line the acceptance driver reads.
		line, err := json.Marshal(last)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "designerbench:", err)
	os.Exit(2)
}

// hygiene prints the environment block and refuses an environment the
// numbers would not mean anything in.
func hygiene(o benchmark.Options) error {
	nproc := runtime.NumCPU()
	procs := runtime.GOMAXPROCS(0)
	if procs > nproc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d available cores", procs, nproc)
	}
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	load := "unknown"
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			load = f[0]
			if l, err := strconv.ParseFloat(f[0], 64); err == nil && l > float64(nproc) {
				fmt.Fprintf(os.Stderr, "designerbench: warning: 1-min load average %s exceeds %d cores; timings will be noisy\n", load, nproc)
			}
		}
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s GOGC=%d loadavg1=%s seed=%d scale=%g seconds=%g\n",
		nproc, procs, runtime.Version(), gogc, load, o.Seed, o.Scale, o.Seconds)
	return nil
}

// child runs one untraced run of a workload in a process of its own, the
// way the acceptance driver does, and returns its result line.
func child(o benchmark.Options, workload string, seed int64) (*benchmark.Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64), "--scale", strconv.FormatFloat(o.Scale, 'g', -1, 64),
		"--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res benchmark.Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d answers failed", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// agreeRuns is the runs per workload and set, one seed each: the acceptance
// rule's ten.
const agreeRuns = 10

// runAgree makes two sets of runs of the same code and applies the
// acceptance rule to every workload × end-to-end metric cell. The two sets
// of a workload run back to back, and which set goes first alternates from
// workload to workload: this box drifts by a quarter over an hour, and the
// check is of the instrument, not of the weather.
func runAgree(o benchmark.Options) (bool, error) {
	spec, err := benchmark.LoadSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	names := benchmark.Workloads()
	sets := [2]map[string][]*benchmark.Result{{}, {}}
	for w, name := range names {
		for turn := 0; turn < 2; turn++ {
			s := (w + turn) % 2
			for k := 0; k < agreeRuns; k++ {
				res, err := child(o, name, o.Seed+int64(k))
				if err != nil {
					return false, err
				}
				sets[s][name] = append(sets[s][name], res)
				fmt.Printf("set %d %s seed %d: %.4f KB an answer, set-up %.3f s\n", s+1, name, o.Seed+int64(k),
					res.Metrics["alloc_kb_per_answer"].Value, res.Metrics["setup_s"].Value)
			}
		}
	}
	table, ok := benchmark.Agreement(spec, names, sets[0], sets[1])
	fmt.Print(table)
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return false, err
	}
	return ok, os.WriteFile(o.OutDir+"/agree.txt", []byte(table), 0o644)
}
