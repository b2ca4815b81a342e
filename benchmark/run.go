// Package benchmark is this repository's performance instrument: five
// closed-loop workloads that ask the designer the questions a DBA asks,
// measured from the front door (end-to-end metrics) and, in a separate
// traced run, layer by layer from outside, by timing calls into each
// module's public functions. README.md has the tables.
package benchmark

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/designer"
)

// Options select one run.
type Options struct {
	Workload string
	// Seed drives the dataset and every generated script.
	Seed int64
	// Seconds is the acceptance driver's --seconds (BENCHMARK.json's
	// run_seconds, 10). It does not stop a clock: each workload runs the
	// number of identical laps frozen for ten seconds, times Seconds/10, so
	// the work of a run is fixed by its arguments.
	Seconds float64
	// Scale multiplies the work of a run — answers per lap, set-up repeats,
	// pieces of the edit script; below 1 it is the smoke size.
	Scale float64
	// Trace selects the traced run (per-layer metrics) instead of the
	// untraced one (end-to-end metrics).
	Trace bool
	// OutDir receives span files.
	OutDir string
	// Log receives the human-readable report; nil discards it.
	Log io.Writer
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports. The four exported JSON fields are the
// line the acceptance driver reads.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	// Digest is the sha256 of the canonical answers of one lap.
	Digest string `json:"-"`
	// Counts are exact work counts per answer; they repeat for a seed.
	Counts map[string]float64 `json:"-"`
	// Seven holds the seven end-to-end figures of the measured phase by
	// name, whichever of the two runs prints each as a metric.
	Seven map[string]float64 `json:"-"`
}

// instance is one set-up workload. A lap is answers() calls of answer per
// client; every client is a closed loop: it waits for an answer before
// asking the next question.
type instance interface {
	clients() int
	answers() int
	beginLap(ctx context.Context) error
	// answer asks question i of the lap and waits for the reply. It returns
	// a cheap checksum of the reply that must repeat lap after lap. With a
	// non-nil tracer it records spans under the given root.
	answer(ctx context.Context, client, i int, tr *tracer, root int) (float64, error)
	// canon renders the client's latest reply canonically (untimed).
	canon(client int) string
	// verify checks the client's latest reply against an independent cold
	// computation (untimed).
	verify(ctx context.Context, client int) error
	// endLap closes the lap and returns a canonical rendering of lap-level
	// state that must equal the first lap's ("" when there is none).
	endLap(ctx context.Context) (string, error)
	// counts reports cumulative exact work counters.
	counts() map[string]float64
	// probeScripts are statements of the workload's own inputs, cut into
	// advise-sized scripts, for the per-layer stopwatches of a traced run.
	probeScripts() [][]string
	designer() *designer.Designer
	close()
}

// workloadDef names a workload and sizes it.
type workloadDef struct {
	name string
	// lapAnswers is the answers per lap at scale 1 (all clients together).
	lapAnswers int
	// laps is the number of measured laps at --seconds 10.
	laps int
	// setup builds the instance for n answers per lap. probe is the
	// private engine of a traced run, nil in an untraced one.
	setup func(ctx context.Context, o Options, n int, probe *probeEnv) (instance, error)
}

// Workloads lists the workload names in reporting order.
func Workloads() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("benchmark: unknown workload %q (have %v)", name, Workloads())
}

// verifyEvery is the stride of untimed answer verification.
const verifyEvery = 20

// setupRuns is how many whole set-ups an untraced run at scale 1 times;
// setup_s is their median.
const setupRuns = 3

// sevenUnits names the seven end-to-end figures every measured phase gives,
// with their units. BENCHMARK.json bounds the ones in bounded; the rest
// could not hold the bound the issue set and are per-layer metrics, printed
// by the traced run under the same names (README.md, "Bounds").
var sevenUnits = map[string]string{
	"setup_s":             "s",
	"answer_p50_ms":       "ms",
	"answer_p95_ms":       "ms",
	"answers_per_s":       "1/s",
	"cpu_ms_per_answer":   "ms",
	"alloc_kb_per_answer": "KB",
	"heap_retained_mb":    "MB",
}

var bounded = map[string]bool{
	"setup_s":             true,
	"alloc_kb_per_answer": true,
	"heap_retained_mb":    true,
}

// Run sets a workload up, measures it and verifies its answers.
func Run(ctx context.Context, o Options) (*Result, error) {
	def, err := findWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.Seconds <= 0 || o.Scale <= 0 {
		return nil, fmt.Errorf("benchmark: seconds and scale must be positive")
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	n := max(2, int(math.Round(float64(def.lapAnswers)*o.Scale)))
	laps := max(1, int(math.Round(float64(def.laps)*o.Seconds/10)))

	var probe *probeEnv
	repeats := max(1, int(math.Round(setupRuns*o.Scale)))
	if o.Trace {
		// The traced run does not report setup_s: one set-up.
		repeats = 1
		if probe, err = newProbeEnv(o.Seed); err != nil {
			return nil, err
		}
	}

	// Set-up, repeated: every repeat builds the instance from nothing, so
	// the median is of whole set-ups.
	var inst instance
	setups := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if inst, err = def.setup(ctx, o, n, probe); err != nil {
			return nil, fmt.Errorf("benchmark: %s set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	r := &runner{inst: inst, answers: inst.answers() * inst.clients()}
	res := &Result{Metrics: map[string]Metric{}, Counts: map[string]float64{}}

	// Warm-up lap, untimed: fills caches, renders every reply into the
	// digest, checks every verifyEvery-th reply against a cold computation,
	// and records the checksums every later lap must repeat — so a measured
	// answer is correct exactly when it equals a verified one.
	t0 := time.Now()
	warm, err := r.lap(ctx, true, nil)
	if err != nil {
		return nil, err
	}
	r.want = warm
	res.Digest = warm.digest
	res.Attempted, res.Failed = r.answers, warm.failed
	fmt.Fprintf(o.Log, "%s: seed %d, %d answers/lap, %d clients, answers_digest %s\n",
		def.name, o.Seed, r.answers, inst.clients(), res.Digest)
	fmt.Fprintf(o.Log, "  set-ups %.2f s; warm-up lap with verification %.1f s\n", setups, time.Since(t0).Seconds())

	seven, last, err := r.measure(ctx, o, laps, res)
	if err != nil {
		return nil, err
	}
	seven["setup_s"] = median(setups)
	res.Seven = seven
	if o.Trace {
		if err := runTraced(ctx, o, probe, r, res, seven, last); err != nil {
			return nil, err
		}
	} else {
		for _, name := range slices.Sorted(maps.Keys(seven)) {
			if bounded[name] {
				res.Metrics[name] = Metric{seven[name], sevenUnits[name]}
			} else {
				fmt.Fprintf(o.Log, "  %-34s %14.4f %s (a per-layer metric: --trace 1 reports it)\n", name, seven[name], sevenUnits[name])
			}
		}
	}

	res.Correct = res.Failed == 0
	fmt.Fprintf(o.Log, "%s: attempted %d, failed %d\n", def.name, res.Attempted, res.Failed)
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Fprintf(o.Log, "  %-34s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}

// measure runs the measured phase — laps identical laps after a collection —
// and returns the end-to-end figures it gives (all but setup_s), adding the
// phase's answers, failures and exact work counts to res. It also returns
// the last lap, which the traced lap that follows is compared with.
func (r *runner) measure(ctx context.Context, o Options, laps int, res *Result) (map[string]float64, *lapOut, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := r.inst.counts()
	var outs []*lapOut
	var retained uint64
	for lap := 0; lap < laps; lap++ {
		if lap == laps-1 {
			// Read retained heap at the end of the last lap, while the lap's
			// state (tuner, sessions, server) is still reachable.
			r.beforeEnd = func() {
				runtime.ReadMemStats(&m1)
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				retained = m.HeapAlloc
			}
		}
		out, err := r.lap(ctx, false, nil)
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, out)
		res.Failed += out.failed
	}
	runtime.KeepAlive(r.inst)
	c1 := r.inst.counts()
	total := laps * r.answers
	res.Attempted += total
	for k, v := range c1 {
		res.Counts[k] = (v - c0[k]) / float64(total)
	}
	seven, waits := summarize(outs, r.answers)
	if waits == 0 {
		return nil, nil, fmt.Errorf("benchmark: no measured answer succeeded")
	}
	seven["alloc_kb_per_answer"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(total)
	seven["heap_retained_mb"] = float64(retained) / (1 << 20)
	var walls []float64
	for _, out := range outs {
		walls = append(walls, out.wallS)
	}
	fmt.Fprintf(o.Log, "  measured %d laps of %d answers: %d waits pooled, %d beyond the 95th percentile; lap walls %.3f s\n",
		laps, r.answers, waits, waits/20, walls)
	for _, k := range slices.Sorted(maps.Keys(res.Counts)) {
		fmt.Fprintf(o.Log, "  count %-28s %14.4f per answer\n", k, res.Counts[k])
	}
	return seven, outs[laps-1], nil
}

// summarize turns measured laps into the timing figures: the waits of all
// laps pooled for the median and the 95th percentile (failed answers have
// no wait), and the median over laps of the lap's rate and of its CPU time
// per answer. It also returns the number of waits pooled.
func summarize(outs []*lapOut, answers int) (map[string]float64, int) {
	var waits, rates, cpus []float64
	for _, out := range outs {
		waits = append(waits, flat(out.latMs)...)
		rates = append(rates, float64(answers)/out.wallS)
		cpus = append(cpus, out.cpuMs/float64(answers))
	}
	return map[string]float64{
		"answer_p50_ms":     percentile(waits, 0.50),
		"answer_p95_ms":     percentile(waits, 0.95),
		"answers_per_s":     median(rates),
		"cpu_ms_per_answer": median(cpus),
	}, len(waits)
}

// lapOut is what one lap produced.
type lapOut struct {
	latMs  [][]float64 // [client][i]; NaN for a failed answer
	checks [][]float64 // [client][i]
	digest string
	state  string
	wallS  float64
	cpuMs  float64
	failed int
}

// runner drives laps over one instance.
type runner struct {
	inst    instance
	answers int // per lap, all clients
	want    *lapOut
	// beforeEnd, when set, runs once between the lap's last answer and
	// endLap, then clears itself.
	beforeEnd func()
}

// lap runs one lap: every client asks its answers in a closed loop. In the
// warm-up lap (warm) every reply is rendered into the digest and every
// verifyEvery-th is checked cold; measured laps do neither, so nothing but
// the answers runs between their clock reads.
func (r *runner) lap(ctx context.Context, warm bool, tr *tracer) (*lapOut, error) {
	inst := r.inst
	nc, per := inst.clients(), inst.answers()
	out := &lapOut{checks: make([][]float64, nc)}
	lat := make([][]float64, nc)
	out.latMs = lat
	canon := make([][]string, nc)
	fails := make([]int, nc)
	errs := make([]error, nc)
	if err := inst.beginLap(ctx); err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat[c] = make([]float64, per)
			out.checks[c] = make([]float64, 0, per)
			for i := 0; i < per; i++ {
				root := tr.begin(0, c*per+i+1, "answer")
				a0 := time.Now()
				check, err := inst.answer(ctx, c, i, tr, root)
				d := time.Since(a0)
				tr.end(root)
				// A failed answer misses every latency figure.
				lat[c][i] = math.NaN()
				if err != nil {
					errs[c] = err
					fails[c]++
					out.checks[c] = append(out.checks[c], math.NaN())
					continue
				}
				out.checks[c] = append(out.checks[c], check)
				if r.want != nil && check != r.want.checks[c][i] {
					fails[c]++
					errs[c] = fmt.Errorf("answer %d of client %d: checksum %v, first lap had %v", i, c, check, r.want.checks[c][i])
					continue
				}
				lat[c][i] = float64(d.Nanoseconds()) / 1e6
				if warm {
					canon[c] = append(canon[c], inst.canon(c))
					if i%verifyEvery == 0 {
						if err := inst.verify(ctx, c); err != nil {
							fails[c]++
							errs[c] = err
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	out.wallS = time.Since(t0).Seconds()
	out.cpuMs = (cpuTime() - cpu0).Seconds() * 1e3
	if r.beforeEnd != nil {
		r.beforeEnd()
		r.beforeEnd = nil
	}
	state, err := inst.endLap(ctx)
	if err != nil {
		return nil, err
	}
	out.state = state
	h := sha256.New()
	for c := 0; c < nc; c++ {
		out.failed += fails[c]
		if errs[c] != nil {
			fmt.Fprintf(os.Stderr, "benchmark: failed answer: %v\n", errs[c])
		}
		for _, s := range canon[c] {
			io.WriteString(h, s)
			io.WriteString(h, "\n")
		}
	}
	io.WriteString(h, state)
	out.digest = hex.EncodeToString(h.Sum(nil))[:16]
	if r.want != nil && state != r.want.state {
		out.failed++
		fmt.Fprintf(os.Stderr, "benchmark: lap state differs from the first lap's:\n%s\nwant:\n%s\n", state, r.want.state)
	}
	return out, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func spanPath(o Options) string {
	return filepath.Join(o.OutDir, "trace-"+o.Workload+".json")
}
