package sim

import (
	"testing"
	"time"
)

// The tests in this file pin the exact steady-state allocation counts of the
// kernel paths the substrate benchmarks gate (BenchmarkSimKernelSchedule,
// BenchmarkSimKernelRun, BenchmarkSimKernelDenseTimers and
// BenchmarkSimKernelDenseTimersHeapOnly; TestScheduleArgAllocFree covers
// BenchmarkSimKernelEvents and TestSleepParkResumeAllocFree
// BenchmarkSimProcSwitch), so every `go test` enforces them without a
// benchmark run. Each reuses one kernel across runs, as a long simulation
// does: queue slices reach their steady capacity in the warm-up passes.

// TestScheduleRunAllocFree pins the closure form's push and its drain: a
// hoisted func() is pointer-shaped, so scheduling and dispatching it must
// allocate nothing once the queue has grown. A zero total bounds both
// halves, BenchmarkSimKernelSchedule's and BenchmarkSimKernelRun's, at 0.
func TestScheduleRunAllocFree(t *testing.T) {
	const events = 2000
	k := New()
	n := 0
	fn := func() { n++ }
	storm := func() {
		n = 0
		for i := 0; i < events; i++ {
			k.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		k.Run()
		if n != events {
			t.Fatalf("ran %d events, want %d", n, events)
		}
	}
	for i := 0; i < 8; i++ {
		storm()
	}
	if avg := testing.AllocsPerRun(5, storm); avg != 0 {
		t.Fatalf("Schedule+Run storm allocated %.2f objects per %d-event run in steady state, want 0", avg, events)
	}
}

// TestDenseTimersAllocFree pins the dense-timer regime on both queues: a
// standing population of self-rescheduling ScheduleArg timers, where every
// op is one pop plus one push against the population's depth.
func TestDenseTimersAllocFree(t *testing.T) {
	for _, q := range []struct {
		name string
		k    *Kernel
	}{{"wheel", New()}, {"heap-only", NewHeapOnly()}} {
		t.Run(q.name, func(t *testing.T) {
			const population, fires = 1024, 8192
			type state struct {
				remaining int
				x         uint64
			}
			s := &state{}
			next := func() time.Duration {
				s.x ^= s.x << 13
				s.x ^= s.x >> 7
				s.x ^= s.x << 17
				return time.Duration(1 + s.x%uint64(4*time.Millisecond))
			}
			var fire func(any)
			fire = func(arg any) {
				st := arg.(*state)
				if st.remaining <= 0 {
					return
				}
				st.remaining--
				q.k.ScheduleArg(next(), fire, st)
			}
			storm := func() {
				s.remaining, s.x = fires, 0x9E3779B97F4A7C15
				for i := 0; i < population; i++ {
					q.k.ScheduleArg(next(), fire, s)
				}
				q.k.Run()
				if s.remaining != 0 {
					t.Fatalf("%d fires left undone", s.remaining)
				}
			}
			for i := 0; i < 8; i++ {
				storm()
			}
			if avg := testing.AllocsPerRun(5, storm); avg != 0 {
				t.Fatalf("dense-timer storm allocated %.2f objects per run in steady state, want 0", avg)
			}
		})
	}
}
