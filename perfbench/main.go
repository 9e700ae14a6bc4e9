// Command perfbench is hyperprof's study-level benchmark. It runs one
// workload — one study at a fixed size — in a closed loop of fresh
// processes, one study run per process, checks every run's exported bytes,
// and prints host-time metrics by name and unit. The last line of its
// output is one JSON object with the keys correct, attempted, failed and
// metrics.
//
// Usage:
//
//	perfbench --workload char|overload|fleet|pipeline --seed N --seconds S --trace 0|1
//	perfbench --pin FILE
//
// With --trace 0 it reports the end-to-end metrics of untraced runs. With
// --trace 1 it alternates untraced runs with runs sampled by runtime/pprof,
// charges the samples to hyperprof's internal modules, and reports the
// per-layer metrics; the harness spans are written as a Chrome trace to
// .bench_build/spans-<workload>-<seed>.json. --pin
// regenerates the pinned digests and counts for the main and held-out seeds.
// NOTES.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"time"
)

// The seeds whose digests and counts are pinned: the main seed and a
// held-out seed that no tuning uses, so a later claim can be confirmed on
// it.
const (
	mainSeed    = 1
	heldOutSeed = 99
)

// seedStride separates the seeds of successive runs within one benchmark
// run. Each run after the first repeat uses the next seed, so the medians
// cover many inputs drawn from --seed rather than one.
const seedStride = 1_000_003

// setupProbes is how many extra processes each end-to-end benchmark run
// starts only to time set-up, so that setup_s is a median over many
// set-ups even for workloads that fit few study runs in the time budget.
const setupProbes = 10

// runTimeout bounds one run process; a study run takes a few seconds, and
// a hung one must not keep the benchmark past its own deadline.
const runTimeout = 45 * time.Second

//go:embed pins.json
var pinsJSON []byte

// pin is the expected output of one workload at one seed.
type pin struct {
	Digest string
	Counts map[string]float64
}

// pinSet maps workload name, then decimal seed, to its pin.
type pinSet map[string]map[string]pin

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: char, overload, fleet or pipeline")
	seed := fs.Uint64("seed", mainSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from sampled runs")
	pinOut := fs.String("pin", "", "run every workload at the main and held-out seeds and write their digests and counts to this file")
	oneRun := fs.Bool("run", false, "run one study and print its report (used by the coordinator)")
	t0 := fs.Int64("t0", 0, "with --run: Unix nanoseconds at which the process was started")
	traced := fs.Bool("traced", false, "with --run: sample the run with runtime/pprof")
	setupOnly := fs.Bool("setup-only", false, "with --run: stop at the study call and report only the set-up time")
	probe := fs.Bool("probe", false, "time the platform constructors and print the medians (used by the coordinator)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *probe {
		return serveProbe(*seed)
	}
	if *pinOut != "" {
		return writePins(*pinOut)
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want char, overload, fleet or pipeline)", *name)
	}
	if *oneRun {
		return serveRun(w, *seed, *t0, *traced, *setupOnly)
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *traceMode)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var pins pinSet
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	b := bench{name: *name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), pins: pins[*name]}
	if *traceMode == 0 {
		return b.endToEnd(os.Stdout)
	}
	return b.perLayer(os.Stdout, fmt.Sprintf(".bench_build/spans-%s-%d.json", *name, *seed))
}

// bench is one benchmark run of one workload.
type bench struct {
	name   string
	seed   uint64
	budget time.Duration
	pins   map[string]pin
}

// runSeed is the seed of the i-th distinct input of this benchmark run; the
// first is --seed itself.
func (b bench) runSeed(i int) uint64 { return b.seed + uint64(i)*seedStride }

// loop calls step until the time budget would be overrun by one more step,
// but at least minSteps times. A step's cost is estimated as the median of
// the steps so far.
func (b bench) loop(minSteps int, step func(i int)) {
	start := time.Now()
	var costs []float64
	for i := 0; ; i++ {
		if i >= minSteps && time.Since(start)+time.Duration(median(costs)*float64(time.Second)) > b.budget {
			return
		}
		t := time.Now()
		step(i)
		costs = append(costs, time.Since(t).Seconds())
	}
}

// spawnOutput runs this program in a fresh process with args plus the
// start time, and returns its standard output.
func spawnOutput(args ...string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var stdout bytes.Buffer
	t0 := time.Now().UnixNano()
	cmd := exec.CommandContext(ctx, self, append(args, "--t0", strconv.FormatInt(t0, 10))...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s process: %w", args[0], err)
	}
	return stdout.Bytes(), nil
}

// spawnRun runs one study in a fresh process and returns its report. A
// process that fails to produce a report yields a report with Err set.
func (b bench) spawnRun(seed uint64, traced bool) runReport {
	args := []string{"--run", "--workload", b.name, "--seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "--traced")
	}
	rep, err := spawnReport(args...)
	if err != nil {
		rep.Err = err.Error()
	}
	rep.Seed, rep.Traced = seed, traced
	return rep
}

// spawnReport runs one --run process and decodes its report.
func spawnReport(args ...string) (runReport, error) {
	var rep runReport
	out, err := spawnOutput(args...)
	if err == nil {
		err = json.Unmarshal(lastLine(out), &rep)
	}
	return rep, err
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// checker validates run reports: against the pinned digest and counts when
// the seed is pinned, and against the first good report of the same seed
// otherwise, so a run that differs from another process's run of the same
// input fails.
type checker struct {
	pins     map[string]pin
	first    map[uint64]pin
	failed   int
	mismatch int
}

// check returns whether rep passes, and prints why when it does not.
func (c *checker) check(rep runReport) bool {
	fail := func(format string, a ...any) bool {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: run seed %d traced=%v failed: %s\n", rep.Seed, rep.Traced, fmt.Sprintf(format, a...))
		return false
	}
	if rep.Err != "" {
		return fail("%s", rep.Err)
	}
	got := pin{Digest: rep.Digest, Counts: rep.Counts}
	if want, ok := c.pins[strconv.FormatUint(rep.Seed, 10)]; ok {
		if d := diffPin(want, got); d != "" {
			return fail("differs from the pinned output: %s", d)
		}
	}
	if c.first == nil {
		c.first = map[uint64]pin{}
	}
	if want, ok := c.first[rep.Seed]; ok {
		if d := diffPin(want, got); d != "" {
			c.mismatch++
			return fail("differs from another process's run of the same seed: %s", d)
		}
	} else {
		c.first[rep.Seed] = got
	}
	return true
}

// diffPin describes the first difference between two outputs, or returns "".
func diffPin(want, got pin) string {
	if want.Digest != got.Digest {
		return fmt.Sprintf("export digest %s, want %s", got.Digest, want.Digest)
	}
	for _, k := range countNames {
		if want.Counts[k] != got.Counts[k] {
			return fmt.Sprintf("count %s = %v, want %v", k, got.Counts[k], want.Counts[k])
		}
	}
	return ""
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r result) print(w io.Writer) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// endToEndMetrics are summarized over the good untraced runs: times by
// their median. A run's peak heap depends on whether a GC cycle ends just
// before or just after the program's largest live set, so the per-run
// peaks fall into two groups about 10% apart; their median jumps between
// the groups from one benchmark run to the next, and their mean does not.
var endToEndMetrics = []struct {
	name, unit string
	get        func(runReport) float64
	mean       bool
}{
	{"wall_s", "s", func(r runReport) float64 { return r.WallS }, false},
	{"cpu_s", "s", func(r runReport) float64 { return r.CPUS }, false},
	{"ops_per_s", "1/s", func(r runReport) float64 { return r.Counts["workload.ops"] / r.WallS }, false},
	{"peak_heap_mib", "MiB", func(r runReport) float64 { return r.PeakHeapMiB }, true},
	{"setup_s", "s", func(r runReport) float64 { return r.SetupS }, false},
}

// endToEnd measures untraced runs: the first seed twice, so two processes
// run the same input, then a new seed per run.
func (b bench) endToEnd(w io.Writer) error {
	c := checker{pins: b.pins}
	var good []runReport
	attempted := 0
	b.loop(3, func(i int) {
		rep := b.spawnRun(b.runSeed(max(i-1, 0)), false)
		attempted++
		if c.check(rep) {
			good = append(good, rep)
		}
	})
	var setups []float64
	for _, r := range good {
		setups = append(setups, r.SetupS)
	}
	for i := 0; i < setupProbes; i++ {
		rep, err := spawnReport("--run", "--setup-only", "--workload", b.name, "--seed", strconv.FormatUint(b.seed, 10))
		if err != nil {
			return err
		}
		setups = append(setups, rep.SetupS)
	}
	fmt.Fprintf(w, "perfbench %s seed %d: %d runs attempted, %d failed, fail_frac %.4g, %d nondeterministic\n",
		b.name, b.seed, attempted, c.failed, float64(c.failed)/float64(attempted), c.mismatch)
	ms := map[string]metric{}
	for _, m := range endToEndMetrics {
		vs := make([]float64, len(good))
		for i, r := range good {
			vs[i] = m.get(r)
		}
		if m.name == "setup_s" {
			vs = setups
		}
		stat, v := "median", median(vs)
		if m.mean {
			stat, v = "mean", mean(vs)
		}
		ms[m.name] = metric{v, m.unit}
		lo, hi := 0.0, 0.0
		if len(vs) > 0 {
			lo, hi = slices.Min(vs), slices.Max(vs)
		}
		fmt.Fprintf(w, "  %-14s %-6s %-12.6g min %-12.6g max %-12.6g %s over %d runs\n",
			m.name, stat, v, lo, hi, m.unit, len(vs))
	}
	return result{Correct: c.failed == 0, Attempted: attempted, Failed: c.failed, Metrics: ms}.print(w)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// writePins runs every workload twice at the main and held-out seeds, in
// separate processes, and writes their digests and counts.
func writePins(path string) error {
	pins := pinSet{}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pins[n] = map[string]pin{}
		b := bench{name: n}
		for _, seed := range []uint64{mainSeed, heldOutSeed} {
			var c checker
			for i := 0; i < 2; i++ {
				if rep := b.spawnRun(seed, false); !c.check(rep) {
					return fmt.Errorf("%s seed %d: run failed or differs between processes", n, seed)
				}
			}
			pins[n][strconv.FormatUint(seed, 10)] = c.first[seed]
			fmt.Fprintf(os.Stderr, "perfbench: pinned %s seed %d\n", n, seed)
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
