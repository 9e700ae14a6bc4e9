package experiments

// The overload study is the control-plane counterpart of the resilience
// study: instead of asking "does the platform survive crashes", it asks
// "does the platform survive its own clients". Each platform runs the same
// open-loop multi-tenant workload twice through a retry-storm trigger (a
// brownout compounded by a flash crowd) — once naive (unbounded queues,
// eager retries, no tenant isolation) and once protected (bounded queues
// with CoDel expiry and adaptive shedding, retry budgets, circuit breakers,
// weighted tenant shares). The rows compare goodput before the trigger with
// goodput in the final quarter of the run, after the trigger has long
// cleared: a metastable collapse shows up as a RecoveryFrac far below 1 on
// the naive arm. Everything is a pure function of the config seed, so
// sequential and parallel runs render byte-identical reports.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/faults"
	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/workload"
)

// The retry-storm trigger's strength: over the configured trigger window the
// servers' service times are multiplied by overloadSlowFactor (a brownout)
// and the flash tenant's rate by overloadFlashMult (a flash crowd).
const (
	overloadSlowFactor float64 = 10
	overloadFlashMult  float64 = 4
)

// overloadWindow is the goodput accounting bucket width.
const overloadWindow = 50 * time.Millisecond

// The protected arm's control plane; the naive arm runs with unbounded
// queues and eager retries. Server-side admission (netsim.Admission
// semantics) bounds queues at overloadMaxQueue, expires requests that wait
// past overloadTarget for an overloadInterval (CoDel), and sheds adaptively
// from overloadShedStartFrac of the bound. Each client meters its retries
// with a token bucket of overloadRetryBudget and opens a per-target breaker
// for overloadBreakerCooldown after overloadBreakerFailures failures. The
// tenant governor shares overloadQoSCapacity concurrent operations by weight.
const (
	overloadMaxQueue        = 64
	overloadTarget          = 2 * time.Millisecond
	overloadInterval        = 5 * time.Millisecond
	overloadShedStartFrac   = 0.7
	overloadRetryBudget     = 10
	overloadBreakerFailures = 5
	overloadBreakerCooldown = 25 * time.Millisecond
	overloadQoSCapacity     = 96
)

// overloadTenants returns the study's fixed tenant mix for a platform's total
// offered rate: a high-priority interactive tenant with half the load, a
// batch tenant with 30%, and the flash tenant (the one the trigger surges)
// with the rest.
func overloadTenants(rate float64) []workload.OverloadTenant {
	return []workload.OverloadTenant{
		{Name: "interactive", Weight: 3, RatePerSec: rate * 0.5},
		{Name: "batch", Weight: 1, RatePerSec: rate * 0.3},
		{Name: "flash", Weight: 1, RatePerSec: rate * 0.2},
	}
}

// overloadRPCPolicy builds the client-side policy for one arm. Both arms
// retry on a per-attempt deadline — that is what turns a brownout into
// amplified load — but only the protected arm meters its retries with a
// token budget and per-target circuit breakers.
func (o *Overload) overloadRPCPolicy(protected bool, deadline time.Duration) netsim.Policy {
	if !protected {
		// Eager client: quick, barely backed-off retries with no budget.
		// This is the retry amplifier that sustains the metastable state.
		return netsim.Policy{
			Deadline:    deadline,
			MaxAttempts: 6,
			BackoffBase: 100 * time.Microsecond,
			BackoffMax:  500 * time.Microsecond,
		}
	}
	return netsim.Policy{
		Deadline:        deadline,
		MaxAttempts:     3,
		BackoffBase:     500 * time.Microsecond,
		BackoffMax:      5 * time.Millisecond,
		RetryBudget:     overloadRetryBudget,
		BreakerFailures: overloadBreakerFailures,
		BreakerCooldown: overloadBreakerCooldown,
	}
}

// admission builds the protected arm's server-side admission knobs.
func (o *Overload) admission() netsim.Admission {
	return netsim.Admission{
		MaxQueue:      overloadMaxQueue,
		Target:        overloadTarget,
		Interval:      overloadInterval,
		ShedStartFrac: overloadShedStartFrac,
		Seed:          o.Cfg.Seed ^ 0x4f564c44, // "OVLD"
	}
}

// TenantOverload is one tenant's accounting within an overload row, sorted
// by name in the exported slice.
type TenantOverload struct {
	Name                                     string
	Weight                                   float64
	Arrivals, Successes, Failures, Throttled int
}

// OverloadRow is one (platform, arm) measurement of the overload study.
type OverloadRow struct {
	Platform taxonomy.Platform
	// Protected distinguishes the protected arm (overload control plane on)
	// from the naive arm.
	Protected bool
	// Offered, Done, Errors and Throttled count arrivals, successful
	// completions, failed completions and governor throttles.
	Offered, Done, Errors, Throttled int
	// PreGoodput and PostGoodput are successful completions per virtual
	// second before the trigger and in the final quarter of the run;
	// RecoveryFrac is their ratio (the metastability verdict).
	PreGoodput, PostGoodput float64
	RecoveryFrac            float64
	// Sheds counts server-side rejections (hard bound plus adaptive),
	// Expired counts CoDel queue-deadline discards.
	Sheds, Expired int
	// Client-side control-plane accounting.
	Retries, BudgetExhausted, BreakerOpens, BreakerFastFails int
	// Fairness is Jain's index over weight-normalized tenant goodput.
	Fairness float64
	// Tenants holds per-tenant accounting, sorted by name.
	Tenants []TenantOverload
	// FaultsApplied counts trigger events that fired.
	FaultsApplied int
}

// Overload holds the full study: two rows per platform (naive then
// protected, in taxonomy.Platforms() order) plus the protected arm's
// observability series when enabled.
type Overload struct {
	Cfg    StudyConfig
	Rows   []OverloadRow
	Series map[taxonomy.Platform][]obs.Series
}

// overloadArm is one completed (platform, arm) measurement.
type overloadArm struct {
	Row    OverloadRow
	Series []obs.Series
}

// overloadUnitKind tags platform arm pairs in the unit registry.
const overloadUnitKind = "overload/pair"

// overloadUnit is one platform's naive+protected arm pair. The arms share
// nothing, but pairing them keeps one platform's work on one worker.
type overloadUnit struct {
	Platform taxonomy.Platform `json:"platform"`
}

// run runs the platform's naive arm and then its protected arm.
func (u overloadUnit) run(cfg StudyConfig) ([2]overloadArm, error) {
	o := &Overload{Cfg: cfg}
	naive, err := o.runArm(u.Platform, false)
	if err != nil {
		return [2]overloadArm{}, err
	}
	prot, err := o.runArm(u.Platform, true)
	if err != nil {
		return [2]overloadArm{}, err
	}
	return [2]overloadArm{naive, prot}, nil
}

// Row returns the study's row for a platform arm.
func (o *Overload) Row(p taxonomy.Platform, protected bool) *OverloadRow {
	return findRow(o.Rows, func(row *OverloadRow) bool { return row.Platform == p && row.Protected == protected })
}

// Overload runs the overload study: per platform, a naive and a protected
// arm of the same open-loop multi-tenant workload through the same
// retry-storm trigger. The three platforms run concurrently (bounded by
// cfg.Parallel); each platform's arms share nothing, so arm order within a
// unit is merely conventional.
func (cfg StudyConfig) Overload() (*Overload, error) {
	l := cfg.Load
	if l.Duration <= 0 || l.SpannerRate <= 0 || l.BigTableRate <= 0 || l.BigQueryRate <= 0 {
		return nil, fmt.Errorf("experiments: invalid overload config %+v", l)
	}
	if l.TriggerAt <= 0 || l.TriggerAt+l.TriggerDur > l.Duration*3/4 {
		return nil, fmt.Errorf("experiments: overload trigger [%v,%v) must clear before the final quarter of %v",
			l.TriggerAt, l.TriggerAt+l.TriggerDur, l.Duration)
	}
	o := &Overload{Cfg: cfg, Series: map[taxonomy.Platform][]obs.Series{}}
	platforms := taxonomy.Platforms()
	units := make([]overloadUnit, len(platforms))
	for i, p := range platforms {
		units[i] = overloadUnit{Platform: p}
	}
	pairs, err := runUnits(cfg, overloadUnitKind, units)
	if err != nil {
		return nil, err
	}
	for i, p := range platforms {
		for _, arm := range pairs[i] {
			o.Rows = append(o.Rows, arm.Row)
			if arm.Row.Protected && arm.Series != nil {
				o.Series[p] = arm.Series
			}
		}
	}
	return o, nil
}

// runArm runs one platform arm: the open-loop multi-tenant workload through
// the retry-storm trigger, naive or protected.
func (o *Overload) runArm(p taxonomy.Platform, protected bool) (overloadArm, error) {
	cfg := o.Cfg
	l := cfg.Load
	env := newPlatformEnv(p, cfg.Seed+platformOffset(p), cfg.TraceRate, cfg.Obs)
	var adm netsim.Admission
	if protected {
		adm = o.admission()
	}
	var (
		rate     float64
		arrivals func(rng *stats.RNG) func() func(p *sim.Proc) error
		// servers registers the brownout's targets on the engine.
		servers func(eng *faults.Engine) []string
		stop    func()
		// counters copies the platform's overload accounting into the row.
		counters func(row *OverloadRow)
	)
	switch p {
	case taxonomy.Spanner:
		scfg := spanner.DefaultConfig()
		scfg.RPC = o.overloadRPCPolicy(protected, 6*time.Millisecond)
		scfg.Admission = adm
		db, err := spanner.New(env, scfg)
		if err != nil {
			return overloadArm{}, err
		}
		rate = l.SpannerRate
		arrivals = workload.SpannerArrivals(env, db, workload.DefaultSpannerMix(), "spanner-overload-value-0123456789abcdef")
		// The brownout slows every replica.
		servers, stop = db.RegisterFaultTargets, db.Stop
		counters = func(row *OverloadRow) {
			shed, adaptive, expired := db.OverloadStats()
			row.Sheds, row.Expired = shed+adaptive, expired
			row.clientCounters(db.RPCClient())
		}
	case taxonomy.BigTable:
		bcfg := bigtable.DefaultConfig()
		bcfg.Admission = adm
		db, err := bigtable.New(env, bcfg)
		if err != nil {
			return overloadArm{}, err
		}
		rate = l.BigTableRate
		arrivals = workload.BigTableArrivals(env, db, workload.DefaultBigTableMix(), "bigtable-overload-value-0123456789abcdef")
		// BigTable operations execute on the tablet server's node directly
		// (no RPC queue, no slowdown hook), so the trigger is the flash crowd
		// alone; overload pressure comes from the surged arrival rate itself.
		servers = func(*faults.Engine) []string { return nil }
		counters = func(row *OverloadRow) { row.Sheds = db.Shed + db.ShedAdaptive }
	case taxonomy.BigQuery:
		qcfg := bigquery.DefaultConfig()
		qcfg.RPC = o.overloadRPCPolicy(protected, 20*time.Millisecond)
		qcfg.Admission = adm
		e, err := bigquery.New(env, qcfg)
		if err != nil {
			return overloadArm{}, err
		}
		rate = l.BigQueryRate
		arrivals = workload.BigQueryArrivals(env, e, workload.DefaultBigQueryMix())
		// The brownout slows every shuffle server (registered first).
		servers = func(eng *faults.Engine) []string { return e.RegisterFaultTargets(eng)[:qcfg.ShuffleServers] }
		stop = e.Stop
		counters = func(row *OverloadRow) {
			shed, adaptive, expired := e.OverloadStats()
			row.Sheds, row.Expired = shed+adaptive, expired
			row.clientCounters(e.RPCClient())
		}
	default:
		return overloadArm{}, fmt.Errorf("experiments: unknown platform %q", p)
	}
	var gov *netsim.TenantGovernor
	if protected {
		gov = netsim.NewTenantGovernor(overloadQoSCapacity)
		gov.EnableMetrics(env.Obs)
	}
	run := workload.Overload(env, workload.OverloadConfig{
		Duration: l.Duration,
		Window:   overloadWindow,
		Tenants:  overloadTenants(rate),
		Governor: gov,
		Shape:    cfg.Shape,
	}, func(_ string, rng *stats.RNG) func() func(p *sim.Proc) error { return arrivals(rng) })

	// The retry-storm trigger: a brownout on the servers compounded by a
	// flash crowd on the flash tenant.
	eng := faults.NewEngine(env.K)
	brownout := servers(eng)
	eng.Register("tenant/flash", faults.Actions{
		SetRate: func(mult float64) { run.SetRateMult("flash", mult) },
	})
	eng.RunScenario(faults.RetryStorm(brownout, "tenant/flash", l.TriggerAt, l.TriggerDur, overloadSlowFactor, overloadFlashMult))

	// Drain the run, then stop the platform behind it on the sim clock (the
	// open-loop driver has no shutdown hook of its own).
	env.K.Go("overload-stop", func(sp *sim.Proc) {
		sp.Wait(run.Done)
		if stop != nil {
			stop()
		}
	})
	obs.Start(env.K, env.Obs)
	env.K.Run()

	postStart := l.Duration * 3 / 4
	row := OverloadRow{
		Platform:      p,
		Protected:     protected,
		PreGoodput:    float64(run.GoodputBetween(0, l.TriggerAt)) / l.TriggerAt.Seconds(),
		PostGoodput:   float64(run.GoodputBetween(postStart, l.Duration)) / (l.Duration - postStart).Seconds(),
		Fairness:      run.Fairness(),
		FaultsApplied: len(eng.Applied),
	}
	row.Offered, row.Done, row.Errors, row.Throttled = run.Totals()
	if row.PreGoodput > 0 {
		row.RecoveryFrac = row.PostGoodput / row.PreGoodput
	}
	for _, t := range run.Tenants {
		row.Tenants = append(row.Tenants, TenantOverload{
			Name: t.Name, Weight: t.Weight,
			Arrivals: t.Arrivals, Successes: t.Successes, Failures: t.Failures, Throttled: t.Throttled,
		})
	}
	sort.Slice(row.Tenants, func(i, j int) bool { return row.Tenants[i].Name < row.Tenants[j].Name })
	counters(&row)
	return overloadArm{Row: row, Series: env.Obs.Snapshot()}, nil
}

// clientCounters copies the RPC client's control-plane accounting into a row.
func (row *OverloadRow) clientCounters(c *netsim.Client) {
	row.Retries = c.Retries
	row.BudgetExhausted = c.BudgetExhausted
	row.BreakerOpens = c.BreakerOpens
	row.BreakerFastFails = c.BreakerFastFails
}

// JSON renders the study's machine-readable export: the seed and the rows,
// with per-tenant slices already name-sorted, so equal configs produce
// byte-identical documents.
func (o *Overload) JSON() ([]byte, error) {
	doc := struct {
		Seed uint64
		Rows []OverloadRow
	}{Seed: o.Cfg.Seed, Rows: o.Rows}
	return json.MarshalIndent(doc, "", "  ")
}

// RenderOverload renders the study as a fixed-width table: one naive and one
// protected row per platform, with the recovery fraction (post-trigger
// goodput over pre-trigger goodput) as the headline metastability verdict.
func RenderOverload(o *Overload) string {
	var b strings.Builder
	l := o.Cfg.Load
	fmt.Fprintf(&b, "Overload control under a retry storm (seed %d; trigger %v+%v, slow x%.0f, flash x%.0f)\n",
		o.Cfg.Seed, l.TriggerAt, l.TriggerDur, overloadSlowFactor, overloadFlashMult)
	fmt.Fprintf(&b, "%-10s %-10s %7s %7s %6s %6s %9s %9s %7s %6s %7s %7s %6s %6s %6s\n",
		"platform", "arm", "offered", "done", "errs", "thr", "pre/s", "post/s", "recov%", "sheds", "expired", "retries", "budget", "brkr", "fair")
	for _, row := range o.Rows {
		arm := "naive"
		if row.Protected {
			arm = "protected"
		}
		fmt.Fprintf(&b, "%-10s %-10s %7d %7d %6d %6d %9.1f %9.1f %7.1f %6d %7d %7d %6d %6d %6.3f\n",
			row.Platform, arm, row.Offered, row.Done, row.Errors, row.Throttled,
			row.PreGoodput, row.PostGoodput, row.RecoveryFrac*100,
			row.Sheds, row.Expired, row.Retries, row.BudgetExhausted, row.BreakerOpens, row.Fairness)
	}
	return b.String()
}
