// Package experiments contains one harness per table and figure of the
// paper's evaluation, built on the platform simulations, the profiling and
// tracing substrates, and the analytical model. DESIGN.md's per-experiment
// index maps each paper artifact to the function here that regenerates it.
//
// Every study runs from the unified StudyConfig core (study.go): one struct
// of grouped knobs with one method entry point per study.
package experiments

import (
	"fmt"
	"time"

	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/profile"
	"hyperprof/internal/storage"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
	"hyperprof/internal/workload"
)

// Characterization holds everything the table/figure extractors consume.
type Characterization struct {
	Cfg       StudyConfig
	Envs      map[taxonomy.Platform]*platform.Env
	Traces    map[taxonomy.Platform][]*trace.Trace
	Inventory *storage.Inventory
	// QueryBytes is the mean bytes of storage read per query, per platform
	// (feeds Figure 13's off-chip B_i).
	QueryBytes map[taxonomy.Platform]float64
	// Elapsed is the wall-clock time of each platform's simulated day.
	Elapsed map[taxonomy.Platform]time.Duration
	// Series is each platform's observability snapshot; empty unless
	// Cfg.Obs.Enabled.
	Series map[taxonomy.Platform][]obs.Series
}

// platformRun is one platform's completed simulated day, self-contained so
// the three platforms can run on concurrent goroutines and be merged into
// the Characterization afterwards in fixed platform order.
type platformRun struct {
	closedLoopArm
	queryBytes float64
	stores     []*storage.TieredStore
}

// Characterize builds all three platforms, drives their calibrated
// workloads, and collects traces, profiles, inventory and (when enabled)
// observability series. The platforms are independent simulations; they run
// concurrently (bounded by cfg.Parallel) and merge deterministically, so the
// result is byte-for-byte identical to a sequential run with the same seed.
func (cfg StudyConfig) Characterize() (*Characterization, error) {
	if cfg.Clients <= 0 || cfg.TraceRate <= 0 {
		return nil, fmt.Errorf("experiments: invalid characterization config %+v", cfg)
	}
	// A platformRun hands live simulator state (envs, profilers, tracers)
	// straight to the figure extractors; it has no wire form, so the
	// characterization always executes in-process whatever backend the
	// config selects.
	platforms := taxonomy.Platforms()
	runs, err := runJobs(cfg.Parallel, len(platforms), func(i int) (platformRun, error) { return runChar(cfg, platforms[i]) })
	if err != nil {
		return nil, err
	}
	ch := &Characterization{
		Cfg:        cfg,
		Envs:       map[taxonomy.Platform]*platform.Env{},
		Traces:     map[taxonomy.Platform][]*trace.Trace{},
		Inventory:  storage.NewInventory(),
		QueryBytes: map[taxonomy.Platform]float64{},
		Elapsed:    map[taxonomy.Platform]time.Duration{},
		Series:     map[taxonomy.Platform][]obs.Series{},
	}
	for i, p := range platforms {
		run := runs[i]
		ch.Envs[p] = run.env
		ch.Traces[p] = run.env.Tracer.Sampled()
		ch.Elapsed[p] = run.end
		ch.QueryBytes[p] = run.queryBytes
		if series := run.env.Obs.Snapshot(); series != nil {
			ch.Series[p] = series
		}
		for _, s := range run.stores {
			ch.Inventory.AddStore(p, s)
		}
	}
	return ch, nil
}

// runChar drives one platform's calibrated closed-loop workload and keeps
// its live state. It runs the unshaped reference day: the zero client policy
// and the zero arrival shape, with no faults. Storage bytes read per query
// come from the replicas' own stores on Spanner and from the DFS
// chunkservers on BigTable and BigQuery.
func runChar(cfg StudyConfig, p taxonomy.Platform) (platformRun, error) {
	cfg.Shape = workload.ArrivalShape{}
	a, err := runClosedLoop(cfg, p, netsim.Policy{}, 0)
	if err != nil {
		return platformRun{}, err
	}
	if err := a.run.Err(); err != nil {
		return platformRun{}, fmt.Errorf("%s workload: %w", platformName(p), err)
	}
	out := platformRun{closedLoopArm: a}
	for _, m := range a.machines {
		out.stores = append(out.stores, m.Store)
	}
	read := out.stores
	if a.dfs != nil {
		read = a.dfs.Servers()
		out.stores = append(out.stores, read...)
	}
	var bytesRead int64
	for _, s := range read {
		for _, t := range storage.Tiers() {
			bytesRead += s.Stats(t).BytesRead
		}
	}
	out.queryBytes = float64(bytesRead) / float64(cfg.Ops.of(p))
	return out, nil
}

// Prof returns a platform's profiler.
func (ch *Characterization) Prof(p taxonomy.Platform) *profile.Profiler {
	return ch.Envs[p].Prof
}
