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

// TestGoSpawnAllocs pins the exact allocation cost of one process lifetime,
// Go plus running a one-sleep process to exit. A process reuses the idle
// coroutine of one that exited — on its own kernel mid-run, or from the
// shared pool once a run has drained — and costs only its Proc; the channel
// handoff the coroutines replaced cost 4 allocations per lifetime, and a
// fresh coroutine, built only when no idle one exists, costs 12 or 13 (the
// runtime may reuse an exited goroutine), so either pin fails if reuse
// breaks. Fleet studies spawn a process per RPC attempt and per served
// request, so a change to these counts is a change to their allocation
// profile and should be deliberate.
func TestGoSpawnAllocs(t *testing.T) {
	const wantSpawn = 1
	fn := func(p *Proc) { p.Sleep(time.Microsecond) }

	// Mid-run: a long-lived spawner starts one child per 2µs of virtual
	// time; each child has exited before the next is started.
	k := New()
	k.Go("spawner", func(p *Proc) {
		for {
			k.Go("child", fn)
			p.Sleep(2 * time.Microsecond)
		}
	})
	k.RunUntil(100 * time.Microsecond)
	if avg := testing.AllocsPerRun(100, func() { k.RunUntil(k.Now() + 2*time.Microsecond) }); avg != wantSpawn {
		t.Fatalf("a process started mid-run allocated %.2f objects, want exactly %d", avg, wantSpawn)
	}
	if k.Live() != 2 {
		t.Fatalf("%d processes live, want 2 (the spawner and its newest child)", k.Live())
	}

	// After a drained run: the coroutine comes back from the shared pool.
	k = New()
	spawn := func() {
		k.Go("spawn", fn)
		k.Run()
		if k.Live() != 0 {
			t.Fatalf("%d processes live after the run, want 0", k.Live())
		}
	}
	for i := 0; i < 8; i++ {
		spawn()
	}
	if avg := testing.AllocsPerRun(100, spawn); avg != wantSpawn {
		t.Fatalf("Go plus a one-sleep process on a drained kernel allocated %.2f objects, want exactly %d", avg, wantSpawn)
	}
}
