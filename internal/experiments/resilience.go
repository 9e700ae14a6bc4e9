package experiments

import (
	"fmt"
	"strings"
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/faults"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
	"hyperprof/internal/workload"
)

// ResilienceRow is one (platform, arm) measurement.
type ResilienceRow struct {
	Platform taxonomy.Platform
	// Faulted distinguishes the fault-injected arm from the baseline.
	Faulted bool
	// Ops and Errors count issued operations and the subset that failed.
	Ops, Errors int
	// Availability is successful ops / issued ops.
	Availability float64
	// Elapsed is the virtual time to drain the workload.
	Elapsed time.Duration
	// GoodputOpsPerSec is successful ops per virtual second.
	GoodputOpsPerSec float64
	// Latency quantiles over per-operation end-to-end latencies.
	P50, P99, P999 time.Duration
	// FaultsApplied counts fault events that fired during the run.
	FaultsApplied int
	// FaultEvents lists the applied faults (empty for the baseline arm).
	FaultEvents []faults.Applied
}

// Resilience holds the full study: two rows per platform (baseline then
// faulted, in taxonomy.Platforms() order) plus the faulted arm's traces,
// fault marks and (when enabled) observability series for timeline export.
type Resilience struct {
	Cfg    StudyConfig
	Rows   []ResilienceRow
	Traces map[taxonomy.Platform][]*trace.Trace
	Marks  map[taxonomy.Platform][]trace.Mark
	// Series is the faulted arm's observability snapshot per platform; empty
	// unless Cfg.Obs.Enabled.
	Series map[taxonomy.Platform][]obs.Series
}

// resilienceArm is one completed (platform, arm) measurement plus the traces,
// fault marks and observability series the faulted arm exports, kept
// arm-local so platforms can run on concurrent goroutines — or in worker
// subprocesses — and merge afterwards in platform order (trace.Trace
// round-trips its sampling state through custom JSON for the latter).
type resilienceArm struct {
	Row    ResilienceRow
	Traces []*trace.Trace
	Marks  []trace.Mark
	Series []obs.Series
}

// resilienceUnitKind tags platform arm pairs in the unit registry.
const resilienceUnitKind = "resilience/pair"

// resilienceUnit is one platform's baseline+faulted arm pair. The pair stays
// one unit because the fault schedule spans the measured baseline horizon.
type resilienceUnit struct {
	Platform taxonomy.Platform `json:"platform"`
}

// run runs the platform's baseline arm and then, over the measured horizon,
// its faulted arm.
func (u resilienceUnit) run(cfg StudyConfig) ([2]resilienceArm, error) {
	base, err := runResilienceArm(cfg, u.Platform, 0)
	if err != nil {
		return [2]resilienceArm{}, err
	}
	faulted, err := runResilienceArm(cfg, u.Platform, base.Row.Elapsed)
	if err != nil {
		return [2]resilienceArm{}, err
	}
	return [2]resilienceArm{base, faulted}, nil
}

// Resilience measures each platform fault-free, generates a seeded fault
// schedule spanning the measured horizon, and re-runs the identical workload
// under injection. Equal configs replay bit-identically; the three platforms
// run concurrently (bounded by cfg.Parallel) with each platform's
// baseline→faulted pair kept sequential, since the fault schedule spans the
// measured baseline horizon.
func (cfg StudyConfig) Resilience() (*Resilience, error) {
	if cfg.Clients <= 0 || cfg.TraceRate <= 0 {
		return nil, fmt.Errorf("experiments: invalid resilience config %+v", cfg)
	}
	r := &Resilience{
		Cfg:    cfg,
		Traces: map[taxonomy.Platform][]*trace.Trace{},
		Marks:  map[taxonomy.Platform][]trace.Mark{},
		Series: map[taxonomy.Platform][]obs.Series{},
	}
	platforms := taxonomy.Platforms()
	units := make([]resilienceUnit, len(platforms))
	for i, p := range platforms {
		units[i] = resilienceUnit{Platform: p}
	}
	pairs, err := runUnits(cfg, resilienceUnitKind, units)
	if err != nil {
		return nil, err
	}
	for i, p := range platforms {
		for _, arm := range pairs[i] {
			r.Rows = append(r.Rows, arm.Row)
			if arm.Row.Faulted {
				r.Traces[p] = arm.Traces
				r.Marks[p] = arm.Marks
				if arm.Series != nil {
					r.Series[p] = arm.Series
				}
			}
		}
	}
	return r, nil
}

// Row returns the study's row for a platform arm.
func (r *Resilience) Row(p taxonomy.Platform, faulted bool) *ResilienceRow {
	return findRow(r.Rows, func(row *ResilienceRow) bool { return row.Platform == p && row.Faulted == faulted })
}

// runResilienceArm runs one platform arm of the closed-loop characterization
// workload. A zero horizon is the baseline (no faults); a positive horizon
// is the faulted arm, whose crash and straggler schedule over the platform's
// crash targets (one replica per Spanner group) spans it. The arm builds its
// own environment and kernel and touches no study state, so distinct
// platforms may run concurrently.
func runResilienceArm(cfg StudyConfig, p taxonomy.Platform, horizon time.Duration) (resilienceArm, error) {
	seed := cfg.Seed + platformOffset(p)
	env := newPlatformEnv(p, seed, cfg.TraceRate, cfg.Obs)
	eng := faults.NewEngine(env.K)
	opts := workload.ClosedLoopOpts{Shape: cfg.Shape}
	var (
		start         func() *workload.Run
		crash         []string
		stragglerProb = cfg.Faults.StragglerProb
	)
	switch p {
	case taxonomy.Spanner:
		scfg := spanner.DefaultConfig()
		scfg.RPC = resilienceRPCPolicy()
		db, err := spanner.New(env, scfg)
		if err != nil {
			return resilienceArm{}, err
		}
		db.RegisterFaultTargets(eng)
		crash = db.CrashTargets(1)
		start = func() *workload.Run {
			return workload.Spanner(env, db, workload.DefaultSpannerMix(), cfg.Clients, cfg.Ops.Spanner, opts)
		}
	case taxonomy.BigTable:
		db, err := bigtable.New(env, bigtable.DefaultConfig())
		if err != nil {
			return resilienceArm{}, err
		}
		db.RegisterFaultTargets(eng)
		crash, stragglerProb = db.CrashTargets(), 0
		start = func() *workload.Run {
			return workload.BigTable(env, db, workload.DefaultBigTableMix(), cfg.Clients, cfg.Ops.BigTable, opts)
		}
	case taxonomy.BigQuery:
		qcfg := bigquery.DefaultConfig()
		qcfg.RPC = resilienceRPCPolicy()
		e, err := bigquery.New(env, qcfg)
		if err != nil {
			return resilienceArm{}, err
		}
		e.RegisterFaultTargets(eng)
		crash = e.CrashTargets()
		start = func() *workload.Run {
			return workload.BigQuery(env, e, workload.DefaultBigQueryMix(), cfg.Clients, cfg.Ops.BigQuery, opts)
		}
	default:
		return resilienceArm{}, fmt.Errorf("experiments: unknown platform %q", p)
	}
	if horizon > 0 {
		registerNetFaults(eng, env.Net, cfg.Seed)
		eng.InjectAll(faults.GenerateSchedule(sorted(crash), cfg.Faults.schedule(horizon, seed, stragglerProb)))
	}
	return measureResilience(p, env, start(), eng, horizon > 0), nil
}

// measureResilience drains the scheduled workload and condenses it into an
// arm-local result. Elapsed is the instant the workload drains, not the
// kernel's final time: recovery events from the fault schedule may fire
// after the last operation.
func measureResilience(p taxonomy.Platform, env *platform.Env, run *workload.Run, eng *faults.Engine, faulted bool) resilienceArm {
	var elapsed time.Duration
	env.K.Go("resilience-measure", func(mp *sim.Proc) {
		mp.Wait(run.Done)
		elapsed = mp.Now()
	})
	env.Obs.Start(env.K)
	env.K.Run()
	row := ResilienceRow{
		Platform: p,
		Faulted:  faulted,
		Ops:      run.Completed,
		Errors:   len(run.Errors),
		Elapsed:  elapsed,
	}
	if row.Ops > 0 {
		row.Availability = float64(row.Ops-row.Errors) / float64(row.Ops)
	}
	if elapsed > 0 {
		row.GoodputOpsPerSec = float64(row.Ops-row.Errors) / elapsed.Seconds()
	}
	lat := &stats.Summary{}
	traces := env.Tracer.Sampled()
	for _, t := range traces {
		lat.Add((t.End - t.Start).Seconds())
	}
	if lat.N() > 0 {
		row.P50 = time.Duration(lat.Quantile(0.50) * float64(time.Second))
		row.P99 = time.Duration(lat.Quantile(0.99) * float64(time.Second))
		row.P999 = time.Duration(lat.Quantile(0.999) * float64(time.Second))
	}
	arm := resilienceArm{Row: row, Series: env.Obs.Snapshot()}
	if faulted {
		arm.Row.FaultsApplied = len(eng.Applied)
		arm.Row.FaultEvents = eng.Applied
		arm.Traces = traces
		arm.Marks = faultMarks(eng)
	}
	return arm
}

// RenderResilience renders the study as a fixed-width table with a per-row
// faults-on vs faults-off comparison.
func RenderResilience(r *Resilience) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilience under injected faults (seed %d; availability = successful ops / issued ops)\n", r.Cfg.Seed)
	fmt.Fprintf(&b, "%-10s %-9s %6s %5s %7s %10s %10s %10s %10s %10s %7s\n",
		"platform", "arm", "ops", "errs", "avail%", "elapsed", "goodput/s", "p50", "p99", "p999", "faults")
	for _, row := range r.Rows {
		arm := "baseline"
		if row.Faulted {
			arm = "faulted"
		}
		fmt.Fprintf(&b, "%-10s %-9s %6d %5d %7.2f %10s %10.1f %10s %10s %10s %7d\n",
			row.Platform, arm, row.Ops, row.Errors, row.Availability*100,
			row.Elapsed.Round(time.Millisecond), row.GoodputOpsPerSec,
			row.P50.Round(10*time.Microsecond), row.P99.Round(10*time.Microsecond),
			row.P999.Round(10*time.Microsecond), row.FaultsApplied)
	}
	return b.String()
}
