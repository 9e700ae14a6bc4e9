package stats

import (
	"testing"
	"time"
)

// latencyStream returns the fixed pseudo-random latency stream the recorder
// benchmarks (BenchmarkStatsSketchRecord, BenchmarkStatsSummaryRecord) feed.
func latencyStream() func() float64 {
	x := uint64(0x9E3779B97F4A7C15)
	return func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(1 + x%uint64(50*time.Millisecond))
	}
}

// TestRecordAllocCounts pins the gated recorders' allocation counts per Add,
// as the benchmarks count them (total allocations over the run, divided by
// the op count and truncated): 0 for both. The sketch's steady state is an
// increment on an occupied bucket, so once the stream has visited its
// buckets an Add allocates nothing at all; the exact summary's append grows
// its slice geometrically, well under one allocation per Add.
func TestRecordAllocCounts(t *testing.T) {
	next := latencyStream()
	sk := NewSketch(0.01)
	for i := 0; i < 100_000; i++ {
		sk.Add(next())
	}
	next = latencyStream()
	if avg := testing.AllocsPerRun(10_000, func() { sk.Add(next()) }); avg != 0 {
		t.Errorf("Sketch.Add allocates %.2f/op on occupied buckets, want 0", avg)
	}
	next = latencyStream()
	var sum Summary
	if avg := testing.AllocsPerRun(10_000, func() { sum.Add(next()) }); avg != 0 {
		t.Errorf("Summary.Add allocates %.2f/op amortized, want 0", avg)
	}
}
