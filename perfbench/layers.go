package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// layerModules are the internal modules whose share of sampled CPU is
// reported as <m>.self_frac. NOTES.md says why the remaining modules are
// left out.
var layerModules = []string{
	"sim", "compress", "bigtable", "spanner", "bigquery", "columnar", "bloom",
	"storage", "trace", "profile", "stats", "workload", "netsim", "check",
	"faults", "taxonomy", "platform", "experiments",
}

// perLayerMetrics lists every per-layer metric in output order with its
// unit.
func perLayerMetrics() [][2]string {
	var out [][2]string
	for _, m := range layerModules {
		out = append(out, [2]string{m + ".self_frac", "frac"})
	}
	out = append(out,
		[2]string{"sim.switch_frac", "frac"},
		[2]string{"gc.mark_frac", "frac"},
	)
	for _, m := range sortedKeys(inclusiveFrames) {
		out = append(out, [2]string{m, "frac"})
	}
	for _, m := range sortedKeys(constructors) {
		out = append(out, [2]string{m, "ms"})
	}
	out = append(out,
		[2]string{"experiments.run_s", "s"},
		[2]string{"experiments.analyze_s", "s"},
		[2]string{"experiments.export_s", "s"},
		[2]string{"perfbench.self_s", "s"},
		[2]string{"perfbench.trace_overhead_frac", "frac"},
		[2]string{"perfbench.attributed_frac", "frac"},
		[2]string{"gc.cpu_frac", "frac"},
		[2]string{"gc.cycles", "count"},
		[2]string{"gc.alloc_mib", "MiB"},
		[2]string{"gc.alloc_objects", "count"},
	)
	for _, c := range countNames {
		unit := "count"
		switch c {
		case "sim.virtual_s":
			unit = "s"
		case "netsim.goodput_frac":
			unit = "frac"
		}
		out = append(out, [2]string{c, unit})
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// perLayer runs pairs of processes on each seed, one untraced and one
// sampled by runtime/pprof, and reports the per-layer metrics: sampled CPU
// shares from the traced runs, span self times and runtime counters from
// the untraced runs, work counts from the first seed, constructor times
// from a probe process, and the tracing overhead from the pairs.
func (b bench) perLayer(w io.Writer, spansOut string) error {
	c := checker{pins: b.pins}
	var untraced []runReport
	var runSpans [][]span
	var overheads []float64
	var lc layerCounts
	attempted := 0
	origin := time.Now().UnixNano()
	b.loop(1, func(i int) {
		seed := b.runSeed(i)
		u := b.spawnRun(seed, false)
		t := b.spawnRun(seed, true)
		attempted += 2
		uok, tok := c.check(u), c.check(t)
		if uok {
			untraced = append(untraced, u)
			runSpans = append(runSpans, u.Spans)
		}
		if tok {
			lc.merge(t.Layers)
			runSpans = append(runSpans, t.Spans)
		}
		if uok && tok {
			overheads = append(overheads, t.WallS/u.WallS-1)
		}
	})

	ms := map[string]metric{}
	for _, m := range perLayerMetrics() {
		ms[m[0]] = metric{0, m[1]}
	}
	set := func(name string, v float64) { ms[name] = metric{v, ms[name].Unit} }
	for _, m := range layerModules {
		set(m+".self_frac", lc.frac(m))
	}
	set("sim.switch_frac", lc.frac(bucketSwitch))
	set("gc.mark_frac", lc.frac(bucketGC))
	if lc.Total > 0 {
		for m := range inclusiveFrames {
			set(m, float64(lc.Inclusive[m])/float64(lc.Total))
		}
		set("perfbench.attributed_frac", 1-lc.frac(bucketOther))
	}
	set("perfbench.trace_overhead_frac", median(overheads))

	medianOf := func(f func(r runReport) float64) float64 {
		vs := make([]float64, len(untraced))
		for i, r := range untraced {
			vs[i] = f(r)
		}
		return median(vs)
	}
	selfOf := func(names ...string) func(r runReport) float64 {
		return func(r runReport) float64 {
			st := selfTimes(r.Spans)
			var d time.Duration
			for _, n := range names {
				d += st[n]
			}
			return d.Seconds()
		}
	}
	set("experiments.run_s", medianOf(selfOf("experiments.run")))
	set("experiments.analyze_s", medianOf(selfOf("experiments.analyze")))
	set("experiments.export_s", medianOf(selfOf("experiments.export")))
	set("perfbench.self_s", medianOf(selfOf("perfbench.run", "perfbench.check")))
	set("gc.cpu_frac", medianOf(func(r runReport) float64 { return r.GC.CPUFrac }))
	set("gc.cycles", medianOf(func(r runReport) float64 { return r.GC.Cycles }))
	set("gc.alloc_mib", medianOf(func(r runReport) float64 { return r.GC.AllocMiB }))
	set("gc.alloc_objects", medianOf(func(r runReport) float64 { return r.GC.AllocObjects }))
	if first, ok := c.first[b.seed]; ok {
		for _, n := range countNames {
			set(n, first.Counts[n])
		}
	}

	attempted++
	probe, err := spawnOutput("--probe", "--seed", strconv.FormatUint(b.seed, 10))
	var news map[string]float64
	if err == nil {
		err = json.Unmarshal(lastLine(probe), &news)
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(w, "perfbench: constructor probe failed: %v\n", err)
	}
	for n, v := range news {
		set(n, v)
	}

	fmt.Fprintf(w, "perfbench %s seed %d (traced): %d processes attempted, %d failed, %d nondeterministic, %d samples\n",
		b.name, b.seed, attempted, c.failed, c.mismatch, lc.Total)
	for _, m := range perLayerMetrics() {
		fmt.Fprintf(w, "  %-30s %-12.6g %s\n", m[0], ms[m[0]].Value, m[1])
	}
	for _, o := range lc.topOther(5) {
		fmt.Fprintf(w, "  unattributed: %s\n", o)
	}
	if err := writeSpans(spansOut, origin, runSpans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "  spans written to %s\n", spansOut)
	return result{Correct: c.failed == 0, Attempted: attempted, Failed: c.failed, Metrics: ms}.print(w)
}
