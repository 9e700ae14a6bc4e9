package obs

import "hyperprof/internal/sim"

// Start schedules one sampling tick on the kernel that samples every non-nil
// registry in regs; with none it schedules nothing. The registries share the
// first one's Interval. The first sample is taken at virtual time zero
// (after same-instant events already scheduled), then every Interval for as
// long as the simulation has pending work.
//
// Termination: the tick reschedules itself only while the kernel still has
// pending events *besides* the tick itself. Processes are woken exclusively
// by queued events, so an otherwise-empty queue means the workload is
// finished (or deadlocked) — the final tick records one last sample and
// stops, and Kernel.Run terminates as it would without observability. Note
// this is deliberately not a Live()-based test: server worker processes park
// on their request queues for the whole run, so live-process count never
// reaches zero in a healthy simulation.
//
// Registries on one kernel must share one Start call: a tick per registry
// would always see the other registries' pending ticks, so none would ever
// stop and the run would never end.
func Start(k *sim.Kernel, regs ...*Registry) {
	var live []*Registry
	for _, r := range regs {
		if r != nil {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	interval := live[0].cfg.Interval
	var tick func()
	tick = func() {
		t := k.Now()
		for _, r := range live {
			r.sample(t)
		}
		if k.PendingEvents() > 0 {
			k.Schedule(interval, tick)
		}
	}
	k.Schedule(0, tick)
}
