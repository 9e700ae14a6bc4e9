package workload

import "testing"

// TestPipelineHandoffAllocFree pins BenchmarkPipelineHandoff's count: a
// replayed serve pass through the dedup latch allocates nothing.
func TestPipelineHandoffAllocFree(t *testing.T) {
	const batches = 64
	l := newPipelineLedger(256, batches)
	pass := func() {
		for b := 0; b < batches; b++ {
			l.beginServe(b, false)
		}
	}
	if avg := testing.AllocsPerRun(100, pass); avg != 0 {
		t.Fatalf("handoff serve pass allocates %.2f/op, want 0", avg)
	}
	if l.Deduped() != 100*batches {
		t.Fatalf("deduped %d serve passes, want %d", l.Deduped(), 100*batches)
	}
}
