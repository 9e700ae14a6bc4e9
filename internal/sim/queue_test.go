package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestEventQueueMatchesSortOrder drives the 4-ary heap with adversarial
// pushes and pops interleaved, and checks the pop sequence is exactly the
// (at, seq) sort order — the invariant the kernel's determinism rests on.
func TestEventQueueMatchesSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	var pending []event
	var popped []event
	seq := int64(0)
	for round := 0; round < 2000; round++ {
		if len(pending) == 0 || rng.Intn(3) > 0 {
			seq++
			// Few distinct timestamps so same-instant FIFO is exercised hard.
			e := event{at: time.Duration(rng.Intn(16)), seq: seq}
			q.push(e)
			pending = append(pending, e)
		} else {
			popped = append(popped, q.pop())
			pending = pending[:len(pending)-1]
		}
	}
	for q.len() > 0 {
		popped = append(popped, q.pop())
	}
	sort.Slice(popped, func(i, j int) bool { return popped[i].seq < popped[j].seq })
	// Replay: push everything again and pop all; must come out fully sorted.
	var q2 eventQueue
	for _, e := range popped {
		q2.push(e)
	}
	prev := q2.pop()
	for q2.len() > 0 {
		next := q2.pop()
		if next.before(prev) {
			t.Fatalf("heap order violated: (%v,%d) popped after (%v,%d)", prev.at, prev.seq, next.at, next.seq)
		}
		prev = next
	}
}

// TestSleepParkResumeAllocFree asserts the kernel's hot loop — a process
// sleeping and resuming through the value-typed event heap — allocates
// nothing in steady state. This is the invariant BenchmarkSimProcSwitch
// tracks; a regression here silently slows every platform simulation.
func TestSleepParkResumeAllocFree(t *testing.T) {
	const cycles = 2000
	avg := testing.AllocsPerRun(5, func() {
		k := New()
		k.Go("sleeper", func(p *Proc) {
			for i := 0; i < cycles; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		k.Run()
	})
	// Building the kernel and starting the process costs a fixed handful of
	// allocations (kernel, proc, coroutine, initial queue growth);
	// the 2000 sleep cycles themselves must cost none. The old
	// container/heap queue paid 2 allocs per cycle (~4000 here).
	if avg > 25 {
		t.Fatalf("sleep/park/resume allocated %.0f objects across %d cycles, want setup-only (<=25)", avg, cycles)
	}
	// Exactly, in steady state: one long-lived sleeper driven in slices of
	// virtual time pays nothing per round trip. The sleeper stays parked
	// when the test ends, as processes do when a run ends.
	k := New()
	k.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	k.RunUntil(cycles * time.Microsecond)
	if avg := testing.AllocsPerRun(5, func() { k.RunUntil(k.Now() + cycles*time.Microsecond) }); avg != 0 {
		t.Fatalf("steady-state sleep/park/resume allocated %.2f objects per %d cycles, want 0", avg, cycles)
	}
}

// TestScheduleStormDeterminism schedules a large randomized event storm twice
// and checks the execution orders are identical — the heap rewrite must not
// perturb tie-breaking.
func TestScheduleStormDeterminism(t *testing.T) {
	run := func() []int {
		rng := rand.New(rand.NewSource(7))
		k := New()
		var order []int
		for i := 0; i < 5000; i++ {
			i := i
			k.Schedule(time.Duration(rng.Intn(64))*time.Microsecond, func() {
				order = append(order, i)
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event storm diverged at index %d", i)
		}
	}
}
