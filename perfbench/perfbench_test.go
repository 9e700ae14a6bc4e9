package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

const (
	sealFn = "hyperprof/internal/bigtable.(*sstable).seal"
	encFn  = "hyperprof/internal/compress.Encode"
)

func TestBucketRules(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"background mark worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{"background sweeper", []string{"runtime.sweepone", "runtime.bgsweep"}, bucketGC},
		{"innermost module wins", []string{encFn, sealFn, "hyperprof/internal/bigtable.(*DB).compact"}, "compress"},
		{"runtime charged to caller", []string{"runtime.memmove", encFn, sealFn}, "compress"},
		{"stdlib charged to caller", []string{"encoding/json.Marshal", "hyperprof/internal/experiments.(*Overload).JSON", "hyperprof.OverloadControl"}, "experiments"},
		{"GC assist charged to caller", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "hyperprof/internal/storage.(*TieredStore).Put"}, "storage"},
		{"channel handoff in step", []string{"runtime.lock2", "runtime.chansend", "runtime.chansend1", "hyperprof/internal/sim.(*Kernel).step", "hyperprof/internal/sim.(*Kernel).Run"}, bucketSwitch},
		{"channel handoff in park", []string{"runtime.chanrecv", "runtime.chanrecv1", "hyperprof/internal/sim.(*Proc).park", "hyperprof/internal/sim.(*Proc).Sleep", "hyperprof/internal/netsim.(*Client).Call"}, bucketSwitch},
		{"process start handoff", []string{"runtime.chanrecv1", "hyperprof/internal/sim.(*Kernel).Spawn.func1"}, bucketSwitch},
		{"handoff frame itself", []string{"hyperprof/internal/sim.(*Kernel).step", "hyperprof/internal/sim.(*Kernel).Run"}, "sim"},
		{"runtime under other sim code", []string{"runtime.mallocgc", "hyperprof/internal/sim.(*Kernel).Schedule"}, "sim"},
		{"non-runtime frame under park", []string{"sort.Sort", "hyperprof/internal/sim.(*Proc).park"}, "sim"},
		{"scheduler on the system stack", []string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, bucketSwitch},
		{"runtime with no caller", []string{"runtime.systemstack"}, bucketOther},
		{"harness goroutine", []string{"runtime/metrics.Read", "main.startHeapSampler.func1"}, bucketOther},
		{"empty stack", nil, bucketOther},
	}
	for _, c := range cases {
		if got := bucket(c.stack); got != c.want {
			t.Errorf("%s: bucket(%q) = %q, want %q", c.name, c.stack, got, c.want)
		}
	}
}

func TestLayerCounts(t *testing.T) {
	var lc layerCounts
	lc.add([]sample{
		{[]string{encFn, sealFn, "hyperprof/internal/bigtable.New"}, 6},
		{[]string{"hyperprof/internal/bigtable.bootstrapValue", "hyperprof/internal/bigtable.New"}, 2},
		{[]string{"runtime.gcBgMarkWorker"}, 1},
		{[]string{"runtime.systemstack"}, 1},
	})
	var more layerCounts
	more.add([]sample{{[]string{sealFn}, 10}})
	lc.merge(more)

	if lc.Total != 20 {
		t.Fatalf("Total = %d, want 20", lc.Total)
	}
	for b, want := range map[string]float64{"compress": 0.3, "bigtable": 0.6, bucketGC: 0.05, bucketOther: 0.05} {
		if got := lc.frac(b); got != want {
			t.Errorf("frac(%s) = %v, want %v", b, got, want)
		}
	}
	for m, want := range map[string]int64{"bigtable.seal_frac": 16, "bigtable.bootstrap_frac": 8, "spanner.bootstrap_frac": 0} {
		if got := lc.Inclusive[m]; got != want {
			t.Errorf("Inclusive[%s] = %d, want %d", m, got, want)
		}
	}
}

func TestModule(t *testing.T) {
	for fn, want := range map[string]string{
		"hyperprof/internal/sim.(*Kernel).step":             "sim",
		"hyperprof/internal/experiments.runJobs[...].func1": "experiments",
		"hyperprof/internal/compress.Encode":                "compress",
		"hyperprof.Characterize":                            "",
		"main.main":                                         "",
	} {
		if got, _ := module(fn); got != want {
			t.Errorf("module(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "a.child", Parent: 1, Start: 15, End: 20},
		{Name: "b", Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	want := map[string]time.Duration{"root": 40, "a": 25, "b": 60, "a.child": 5}
	got := selfTimes(spans)
	for n, w := range want {
		if got[n] != w {
			t.Errorf("self(%s) = %d, want %d", n, got[n], w)
		}
	}
}

func TestSpanRecorderNesting(t *testing.T) {
	var r spanRecorder
	endOuter := r.begin("outer")
	if err := r.do("inner", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	endOuter()
	r.begin("next")()
	if len(r.spans) != 3 || r.spans[0].Parent != -1 || r.spans[1].Parent != 0 || r.spans[2].Parent != -1 {
		t.Fatalf("spans = %+v, want inner under outer and next a root", r.spans)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.count
				break
			}
		}
	}
	if inSpin == 0 {
		t.Fatalf("no sample of %d under spin; stacks: %v", total, samples)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root names
// exactly the workloads and metrics this program reports, with their units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	var e2e []string
	for _, m := range endToEndMetrics {
		e2e = append(e2e, m.name+" "+m.unit)
	}
	var got []string
	for _, m := range doc.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	if strings.Join(got, ",") != strings.Join(e2e, ",") {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", got, e2e)
	}
	var layer []string
	for _, m := range perLayerMetrics() {
		layer = append(layer, m[0]+" "+m[1])
	}
	got = got[:0]
	for _, m := range doc.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	if strings.Join(got, ",") != strings.Join(layer, ",") {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", got, layer)
	}
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	var pins pinSet
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		for _, seed := range []uint64{mainSeed, heldOutSeed} {
			p, ok := pins[name][strconv.FormatUint(seed, 10)]
			if !ok || len(p.Digest) != 64 || p.Counts["workload.ops"] <= 0 {
				t.Errorf("%s seed %d: pin %+v missing or incomplete", name, seed, p)
			}
		}
	}
}

func TestCheckerFailsOnDifferentOutputs(t *testing.T) {
	c := checker{pins: map[string]pin{"1": {Digest: "aa", Counts: map[string]float64{"workload.ops": 3}}}}
	ok := func(seed uint64, digest string, ops float64) bool {
		return c.check(runReport{Seed: seed, Digest: digest, Counts: map[string]float64{"workload.ops": ops}})
	}
	if !ok(1, "aa", 3) {
		t.Error("pinned output rejected")
	}
	if ok(1, "bb", 3) {
		t.Error("digest differing from the pin accepted")
	}
	if !ok(2, "cc", 5) || ok(2, "cc", 6) {
		t.Error("count differing between runs of one unpinned seed accepted")
	}
	if c.check(runReport{Seed: 3, Err: "boom"}) {
		t.Error("failed run accepted")
	}
	if c.failed != 3 || c.mismatch != 1 {
		t.Errorf("failed=%d mismatch=%d, want 3 and 1", c.failed, c.mismatch)
	}
}
