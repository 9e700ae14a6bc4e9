// The process switch is built on iter.Pull, which needs go1.23 while go.mod
// stays at go 1.22 so that modules built against this one through a replace
// directive (perfbench) keep building unchanged. This constraint raises this
// file's language version to go1.23; every supported toolchain satisfies it.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sync"
	"time"
)

// coroutine hosts processes one after another. The kernel resumes it with
// next and it hands control back with yield: a direct switch that involves
// no scheduler and no channel. When its process exits it parks idle instead
// of exiting, and a later Go — on this kernel or, once this kernel's run has
// drained, on any other — reuses it rather than paying for a fresh one.
//
// A coroutine never exits, so iter.Pull's stop function is never kept or
// called: stopping a coroutine that hosts a parked process would make its
// yield return false and the process run on. Never exiting also keeps the
// race detector bounded: an exited coroutine does not release its
// race-detector thread state (go1.24), so with one coroutine per process a
// -race test run grew by several KiB per process ever started.
type coroutine struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc // the process being hosted; nil while idle
	fn    func(*Proc)
}

// idleCoroutines holds the idle coroutines of kernels whose run drained,
// for any kernel to reuse. Kernels may run on concurrent goroutines, so it is
// locked; a running kernel reuses its own idle coroutines without the lock.
// It holds at most the peak number of processes alive at once in the
// program, the same goroutines the channel handoff kept alive while they ran.
var idleCoroutines struct {
	sync.Mutex
	cs []*coroutine
}

// Go starts a new process executing fn. The process begins at the current
// virtual time, after already-scheduled events for this instant. Go may be
// called before Run, from kernel context, or from another process.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	c := k.idleCoroutine()
	p := &Proc{k: k, name: name, c: c}
	c.p, c.fn = p, fn
	k.live++
	k.wake(k.now, p)
	return p
}

// idleCoroutine returns a coroutine to host a new process: the kernel's own
// most recently idled one, else one from the shared pool, else a new one.
func (k *Kernel) idleCoroutine() *coroutine {
	if n := len(k.idle); n > 0 {
		c := k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
		return c
	}
	idleCoroutines.Lock()
	if n := len(idleCoroutines.cs); n > 0 {
		c := idleCoroutines.cs[n-1]
		idleCoroutines.cs[n-1] = nil
		idleCoroutines.cs = idleCoroutines.cs[:n-1]
		idleCoroutines.Unlock()
		return c
	}
	idleCoroutines.Unlock()
	return newCoroutine()
}

// newCoroutine builds a coroutine that runs each process assigned to it to
// completion, then parks on its kernel's idle list until it is reused. It
// must not put itself in the shared pool directly: a kernel on another
// goroutine could take it and resume it before it has yielded. Its own
// kernel next runs only after the yield, and releaseIdle only after the run.
func newCoroutine() *coroutine {
	c := &coroutine{}
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			p := c.p
			c.fn(p)
			k := p.k
			k.live--
			p.c = nil // a stale wake of p now fails loudly instead of resuming c's next process
			c.p, c.fn = nil, nil
			k.idle = append(k.idle, c)
			yield(struct{}{})
		}
	})
	return c
}

// releaseIdle hands the kernel's idle coroutines to the shared pool. Run
// calls it once the queue has drained.
func (k *Kernel) releaseIdle() {
	if len(k.idle) == 0 {
		return
	}
	idleCoroutines.Lock()
	idleCoroutines.cs = append(idleCoroutines.cs, k.idle...)
	idleCoroutines.Unlock()
	clear(k.idle)
	k.idle = k.idle[:0]
}

// step transfers control to process p until it parks or terminates. A panic
// in the process re-raises here, on the kernel's goroutine.
func (k *Kernel) step(p *Proc) { p.c.next() }

// Proc is a simulated process. All Proc methods must be called from within
// the process itself (i.e. from the fn passed to Kernel.Go), which runs on a
// coroutine in strict alternation with its kernel.
type Proc struct {
	k    *Kernel
	name string
	c    *coroutine
}

// Name returns the name the process was started with.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// park blocks the process until some event resumes it.
func (p *Proc) park() { p.c.yield(struct{}{}) }

// Sleep blocks the process for virtual duration d. It rides the wake fast
// path: the timer is a value-typed event carrying p itself, so a
// Sleep→park→resume cycle allocates nothing in steady state.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	k := p.k
	k.wake(k.now+d, p)
	p.park()
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
