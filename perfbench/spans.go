package main

import (
	"os"
	"path/filepath"
	"sort"
	"time"

	"hyperprof"
	"hyperprof/internal/trace"
)

// span is one timed region of the benchmark's own code around a call into
// the program. Times are wall-clock Unix nanoseconds so that spans from
// separate run processes share one timeline.
type span struct {
	Name   string
	Parent int // index of the enclosing span, -1 for a root
	Start  int64
	End    int64
}

// spanRecorder records nested spans in memory; they are written out when the
// benchmark ends.
type spanRecorder struct {
	spans []span
	open  []int
}

// begin opens a span under the innermost open one and returns its closer.
func (r *spanRecorder) begin(name string) (end func()) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: time.Now().UnixNano()})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return func() {
		r.spans[i].End = time.Now().UnixNano()
		r.open = r.open[:len(r.open)-1]
	}
}

// do runs f inside a span.
func (r *spanRecorder) do(name string, f func() error) error {
	end := r.begin(name)
	defer end()
	return f()
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[i], s.Start, s.End))
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		start, end := max(iv[0], cur), min(iv[1], hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// writeSpans renders every run's spans as one Chrome trace-event document:
// one process row per span name, one thread per run, times relative to
// origin. It opens in Perfetto like the studies' own traces.
func writeSpans(path string, origin int64, runs [][]span) error {
	var traces []*hyperprof.QueryTrace
	for i, spans := range runs {
		for _, s := range spans {
			start, end := time.Duration(s.Start-origin), time.Duration(s.End-origin)
			traces = append(traces, &hyperprof.QueryTrace{
				ID:        uint64(i),
				Platform:  hyperprof.Platform("perfbench " + s.Name),
				Start:     start,
				End:       end,
				Intervals: []trace.Interval{{Start: start, End: end, Class: trace.CPU}},
			})
		}
	}
	b := hyperprof.NewChromeBuilder()
	b.AddTraces(traces, 0)
	data, err := b.Marshal()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
