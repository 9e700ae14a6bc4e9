package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// runReport is what one run process measures and sends back to the
// coordinator as one JSON line.
type runReport struct {
	Seed   uint64
	Traced bool
	// Err is set when the study returned an error or its verdict was wrong.
	Err    string             `json:",omitempty"`
	Digest string             // SHA-256 of the canonical export
	Counts map[string]float64 // work counts from the study result

	SetupS      float64 // process start until the study call
	WallS       float64 // study call until the export is checked
	CPUS        float64 // user+sys over the same interval, all threads
	PeakHeapMiB float64 // highest heap-object bytes seen by the sampler

	GC     gcDelta
	Spans  []span
	Layers layerCounts // sampled CPU by layer; traced runs only
}

// gcDelta is the change in Go runtime counters over the measured interval.
type gcDelta struct {
	CPUFrac      float64 // GC CPU over non-idle runtime CPU
	Cycles       float64
	AllocMiB     float64
	AllocObjects float64
}

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readGC() []float64 {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, m := range s {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = m.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(m.Value.Uint64())
		}
	}
	return out
}

func diffGC(before, after []float64) gcDelta {
	d := make([]float64, len(before))
	for i := range before {
		d[i] = after[i] - before[i]
	}
	var frac float64
	if busy := d[1] - d[2]; busy > 0 {
		frac = d[0] / busy
	}
	return gcDelta{CPUFrac: frac, Cycles: d[3], AllocMiB: d[4] / (1 << 20), AllocObjects: d[5]}
}

// heapSampler polls the heap-object bytes until stopped and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	done chan float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- float64(peak)
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peak stops the sampler and returns the highest reading in MiB.
func (h *heapSampler) peak() float64 {
	close(h.stop)
	return <-h.done / (1 << 20)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runOnce is the body of a run process: one study run of w at seed,
// measured from the study call to a checked export. t0 is the Unix time in
// nanoseconds at which the coordinator started this process.
// With setupOnly it stops at the study call, having measured only set-up.
func runOnce(w workload, seed uint64, t0 int64, traced, setupOnly bool) runReport {
	cfg := w.config(seed)
	rep := runReport{Seed: seed, Traced: traced, SetupS: float64(time.Now().UnixNano()-t0) / 1e9}
	if setupOnly {
		return rep
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			rep.Err = err.Error()
			return rep
		}
	}
	gcBefore := readGC()
	heap := startHeapSampler(time.Millisecond)
	cpuBefore := cpuSeconds()
	start := time.Now()

	var sp spanRecorder
	endRun := sp.begin("perfbench.run")
	out, err := w.run(cfg, &sp)
	if err == nil {
		err = sp.do("perfbench.check", func() error {
			sum := sha256.Sum256(out.export)
			rep.Digest = hex.EncodeToString(sum[:])
			return nil
		})
	}
	endRun()

	rep.WallS = time.Since(start).Seconds()
	rep.CPUS = cpuSeconds() - cpuBefore
	rep.PeakHeapMiB = heap.peak()
	rep.GC = diffGC(gcBefore, readGC())
	rep.Spans = sp.spans
	if traced {
		pprof.StopCPUProfile()
		samples, perr := parseProfile(prof.Bytes())
		if perr != nil && err == nil {
			err = perr
		}
		rep.Layers.add(samples)
	}
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	rep.Counts = out.counts
	return rep
}

// serveRun runs one study and writes its report to stdout.
func serveRun(w workload, seed uint64, t0 int64, traced, setupOnly bool) error {
	rep := runOnce(w, seed, t0, traced, setupOnly)
	line, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("encode run report: %w", err)
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", line)
	return err
}
