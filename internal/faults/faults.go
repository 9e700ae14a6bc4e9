// Package faults is the deterministic fault-injection engine: it drives
// crash/recover, straggler (service-time multiplier), and network-degradation
// events against named targets on the discrete-event clock, generates seeded
// random fault schedules, and runs chaos scenarios with per-scenario stats.
//
// The engine knows nothing about platforms. Each injectable component
// registers a named Actions bundle (how to crash it, recover it, or slow it
// down), and schedules — hand-written or generated — are injected before the
// kernel runs. Everything is seeded, so a given (schedule seed, target set)
// pair replays bit-identically.
package faults

import (
	"fmt"
	"log"
	"sort"
	"time"

	"hyperprof/internal/sim"
)

// Kind classifies a fault event.
type Kind int

// The injectable fault kinds.
const (
	// Crash takes the target down immediately (in-flight work fails).
	Crash Kind = iota
	// Recover brings a crashed target back.
	Recover
	// Straggler multiplies the target's service time by Event.Factor;
	// Factor <= 1 clears the injection.
	Straggler
	// NetDegrade adds Event.Extra per-message delay and drops requests with
	// probability Event.Factor, network-wide.
	NetDegrade
	// NetRestore clears network degradation.
	NetRestore
	// RateSurge multiplies the target's offered load by Event.Factor — the
	// flash-crowd injection for open-loop overload scenarios; Factor <= 1
	// restores the base rate.
	RateSurge
	// Partition blocks connectivity. With Event.Links set it blocks those
	// directed links on the registered link plane; with a bare Target it
	// invokes the target's Partition action (for components that are not
	// RPC-fronted, like BigTable's tablet servers).
	Partition
	// Heal is Partition's inverse: it clears every fault on Event.Links, or
	// invokes the target's Heal action.
	Heal
	// GrayLink injects an asymmetric slow-lossy link: each directed link in
	// Event.Links pays Event.Extra per message and loses messages with
	// probability Event.Factor. Healed by a matching Heal.
	GrayLink
	// ClockSkew sets the target's clock to Event.Extra offset drifting at
	// Event.Factor seconds per second; a later ClockSkew with zero values
	// clears it (skew replaces, never stacks).
	ClockSkew
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Straggler:
		return "straggler"
	case NetDegrade:
		return "net-degrade"
	case NetRestore:
		return "net-restore"
	case RateSurge:
		return "rate-surge"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	case GrayLink:
		return "gray-link"
	case ClockSkew:
		return "clock-skew"
	}
	return "unknown"
}

// Link names one directed network link by its endpoint node names.
type Link struct {
	From, To string
}

// Event is one scheduled fault.
type Event struct {
	// At is the absolute virtual time the fault fires.
	At time.Duration
	// Kind selects the action.
	Kind Kind
	// Target names the registered target; empty for network-wide events.
	Target string
	// Factor is the straggler multiplier, the drop probability (NetDegrade,
	// GrayLink) or the drift rate (ClockSkew).
	Factor float64
	// Extra is the per-message delay (NetDegrade, GrayLink) or the clock
	// offset (ClockSkew).
	Extra time.Duration
	// Links are the directed links a Partition/GrayLink/Heal event acts on;
	// empty means the event is target-scoped instead.
	Links []Link
}

// Actions is what the engine can do to one registered target. Nil fields
// mean the target does not support that fault (events against it are counted
// as skipped rather than applied).
type Actions struct {
	Crash       func()
	Recover     func()
	SetSlowdown func(factor float64)
	// SetRate scales the target's offered load (RateSurge); targets that are
	// not workload generators leave it nil.
	SetRate func(mult float64)
	// Partition/Heal cut the target off and reconnect it at the platform
	// level — for components whose data path is not RPC-fronted, where the
	// netsim link plane cannot model the cut.
	Partition func()
	Heal      func()
	// SetClockSkew skews the target's local clock (ClockSkew); zero values
	// clear the skew.
	SetClockSkew func(offset time.Duration, drift float64)
}

// LinkPlane is the directed-link fault surface an engine drives Partition,
// GrayLink and Heal events through. Each hook reports whether the link's
// endpoints were known; unknown links are counted in SkippedUnknownTarget.
// netsim.Network's BlockLink/SetLinkFault/HealLink methods fit directly.
type LinkPlane struct {
	Block func(from, to string) bool
	Gray  func(from, to string, extra time.Duration, drop float64) bool
	Heal  func(from, to string) bool
}

// Applied records one fault that actually fired.
type Applied struct {
	At     time.Duration
	Kind   Kind
	Target string
}

// Label renders the applied fault for logs and trace marks.
func (a Applied) Label() string {
	if a.Target == "" {
		return a.Kind.String()
	}
	return fmt.Sprintf("%s %s", a.Kind, a.Target)
}

// Engine schedules fault events against registered targets on a kernel.
type Engine struct {
	k          *sim.Kernel
	targets    map[string]Actions
	netDegrade func(extra time.Duration, drop float64)
	netRestore func()
	links      *LinkPlane

	// Applied lists the faults that fired, in firing order.
	Applied []Applied
	// Skipped counts events whose target was unknown or lacked the action.
	Skipped int
	// SkippedUnknownTarget counts the subset of skips caused by a Target or
	// link endpoint that was never registered — a misspelled schedule rather
	// than a target that legitimately lacks the action. The first one is
	// logged so schedules cannot lose events invisibly.
	SkippedUnknownTarget int
	warnedUnknown        bool
}

// NewEngine creates an engine on the kernel.
func NewEngine(k *sim.Kernel) *Engine {
	return &Engine{k: k, targets: map[string]Actions{}}
}

// Register adds a named target. Re-registering a name replaces its actions.
func (e *Engine) Register(name string, a Actions) { e.targets[name] = a }

// RegisterNetwork wires the network-wide degradation hooks.
func (e *Engine) RegisterNetwork(degrade func(extra time.Duration, drop float64), restore func()) {
	e.netDegrade = degrade
	e.netRestore = restore
}

// RegisterLinkPlane wires the directed-link fault hooks Partition, GrayLink
// and link-scoped Heal events apply through.
func (e *Engine) RegisterLinkPlane(p LinkPlane) { e.links = &p }

// Inject schedules one event on the kernel. Events in the past (At before
// the current virtual time) fire immediately.
func (e *Engine) Inject(ev Event) { e.inject(ev, nil) }

// InjectAll schedules a batch of events.
func (e *Engine) InjectAll(evs []Event) {
	for _, ev := range evs {
		e.Inject(ev)
	}
}

func (e *Engine) inject(ev Event, st *ScenarioStats) {
	delay := ev.At - e.k.Now()
	e.k.Schedule(delay, func() {
		if !e.apply(ev) {
			e.Skipped++
			return
		}
		a := Applied{At: e.k.Now(), Kind: ev.Kind, Target: ev.Target}
		e.Applied = append(e.Applied, a)
		if st != nil {
			st.record(a)
		}
	})
}

// apply performs the event's action, reporting whether it was applicable.
func (e *Engine) apply(ev Event) bool {
	switch ev.Kind {
	case NetDegrade:
		if e.netDegrade == nil {
			return false
		}
		e.netDegrade(ev.Extra, ev.Factor)
		return true
	case NetRestore:
		if e.netRestore == nil {
			return false
		}
		e.netRestore()
		return true
	case Partition, GrayLink, Heal:
		if len(ev.Links) > 0 {
			return e.applyLinks(ev)
		}
		// Link-less partition/heal events are target-scoped: fall through to
		// the Actions table below.
	}
	t, ok := e.targets[ev.Target]
	if !ok {
		e.noteUnknownTarget(ev.Target)
		return false
	}
	switch ev.Kind {
	case Crash:
		if t.Crash == nil {
			return false
		}
		t.Crash()
	case Recover:
		if t.Recover == nil {
			return false
		}
		t.Recover()
	case Straggler:
		if t.SetSlowdown == nil {
			return false
		}
		t.SetSlowdown(ev.Factor)
	case RateSurge:
		if t.SetRate == nil {
			return false
		}
		t.SetRate(ev.Factor)
	case Partition:
		if t.Partition == nil {
			return false
		}
		t.Partition()
	case Heal:
		if t.Heal == nil {
			return false
		}
		t.Heal()
	case ClockSkew:
		if t.SetClockSkew == nil {
			return false
		}
		t.SetClockSkew(ev.Extra, ev.Factor)
	default:
		return false
	}
	return true
}

// applyLinks drives a link-scoped event through the registered link plane.
// The event counts as applied if any of its links took the fault; each link
// with an unknown endpoint is counted (and the first logged) instead of
// being lost invisibly.
func (e *Engine) applyLinks(ev Event) bool {
	if e.links == nil {
		return false
	}
	applied := false
	for _, l := range ev.Links {
		var ok bool
		switch ev.Kind {
		case Partition:
			ok = e.links.Block != nil && e.links.Block(l.From, l.To)
		case GrayLink:
			ok = e.links.Gray != nil && e.links.Gray(l.From, l.To, ev.Extra, ev.Factor)
		case Heal:
			ok = e.links.Heal != nil && e.links.Heal(l.From, l.To)
		}
		if !ok {
			e.noteUnknownTarget(l.From + "->" + l.To)
			continue
		}
		applied = true
	}
	return applied
}

// noteUnknownTarget accounts an event (or link) whose target was never
// registered. Logged once per engine: a steady stream of unknown targets is
// one misspelled schedule, not many distinct problems.
func (e *Engine) noteUnknownTarget(name string) {
	e.SkippedUnknownTarget++
	if !e.warnedUnknown {
		e.warnedUnknown = true
		log.Printf("faults: fault target %q is not registered; dropping and counting in SkippedUnknownTarget (further unknown targets logged silently)", name)
	}
}

// Scenario is a named batch of fault events — one chaos experiment.
type Scenario struct {
	Name   string
	Events []Event
}

// ScenarioStats accounts one scenario's injections as the simulation runs.
type ScenarioStats struct {
	Name string
	// Scheduled is the number of events injected.
	Scheduled int
	// Applied lists the scenario's faults that fired, in firing order.
	Applied []Applied
	// ByKind counts applied faults per kind.
	ByKind map[Kind]int
	// ByLabel aggregates repeated applications of the same action by
	// Applied.Label(), so "straggler srv-2 fired 4 times" is one entry.
	ByLabel map[string]int
}

func (st *ScenarioStats) record(a Applied) {
	st.Applied = append(st.Applied, a)
	st.ByKind[a.Kind]++
	st.ByLabel[a.Label()]++
}

// Labels returns the applied-fault labels in sorted order — the same
// deterministic-key convention the obs exports use.
func (st *ScenarioStats) Labels() []string {
	out := make([]string, 0, len(st.ByLabel))
	for l := range st.ByLabel {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// String renders a compact per-scenario summary with deterministic ordering:
// per-kind counts in kind order, then per-label counts in sorted label order.
func (st *ScenarioStats) String() string {
	s := fmt.Sprintf("scenario %q: %d scheduled, %d applied", st.Name, st.Scheduled, len(st.Applied))
	for _, k := range []Kind{Crash, Recover, Straggler, NetDegrade, NetRestore, RateSurge, Partition, Heal, GrayLink, ClockSkew} {
		if n := st.ByKind[k]; n > 0 {
			s += fmt.Sprintf(", %d %s", n, k)
		}
	}
	for _, l := range st.Labels() {
		s += fmt.Sprintf("; %s x%d", l, st.ByLabel[l])
	}
	return s
}

// RunScenario injects every event of the scenario and returns its stats
// handle, which fills in as the simulation executes the events.
func (e *Engine) RunScenario(s Scenario) *ScenarioStats {
	st := &ScenarioStats{Name: s.Name, Scheduled: len(s.Events), ByKind: map[Kind]int{}, ByLabel: map[string]int{}}
	for _, ev := range s.Events {
		e.inject(ev, st)
	}
	return st
}
