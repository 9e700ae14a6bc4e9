package main

import (
	"bytes"
	"fmt"
	"time"

	"hyperprof"
)

// A workload is one study at a fixed size, run through the public
// StudyConfig methods with Parallel 1 and the in-process backend, so one
// process runs one simulation kernel at a time. Its run function returns
// the canonical export the output check hashes and the work counts read
// from the study result. NOTES.md says why each workload was chosen.
type workload struct {
	config func(seed uint64) hyperprof.StudyConfig
	run    func(cfg hyperprof.StudyConfig, sp *spanRecorder) (studyOutput, error)
}

// studyOutput is what one study run yields for the checks.
type studyOutput struct {
	export []byte
	counts map[string]float64
}

// countNames are the per-layer work counts every run reports. A count a
// workload's result does not carry reads 0.
var countNames = []string{
	"workload.ops", "workload.errors", "sim.virtual_s", "trace.traces",
	"netsim.retries", "netsim.sheds", "netsim.expired", "netsim.breaker_opens", "netsim.goodput_frac",
	"bigquery.replays", "bigquery.reputs", "bigquery.speculative",
	"check.deduped", "check.violations", "check.convicted",
	"faults.applied",
	"stats.sketch_buckets", "check.history_kept",
}

// Fleet size: between the 400-server size whose host time grows roughly
// linearly and the 1000-server size where it grows much faster than the
// op count, with users and ops scaled with servers as in the default.
const (
	fleetServers = 500
	fleetUsers   = 250_000
	fleetOps     = 10_000
)

var workloads = map[string]workload{
	"char":     {config: charConfig, run: runChar},
	"overload": {config: overloadConfig, run: runOverload},
	"fleet":    {config: fleetConfig, run: runFleet},
	"pipeline": {config: pipelineConfig, run: runPipeline},
}

func sequential(cfg hyperprof.StudyConfig, seed uint64) hyperprof.StudyConfig {
	cfg.Seed = seed
	cfg.Parallel = 1
	return cfg
}

func charConfig(seed uint64) hyperprof.StudyConfig {
	return sequential(hyperprof.DefaultCharStudyConfig(), seed)
}

// runChar runs the characterization, extracts the §3–5 artifacts and renders
// them in the order the hyperprof command prints them.
func runChar(cfg hyperprof.StudyConfig, sp *spanRecorder) (studyOutput, error) {
	var ch *hyperprof.Characterization
	err := sp.do("experiments.run", func() (err error) {
		ch, err = cfg.Characterize()
		return err
	})
	if err != nil {
		return studyOutput{}, err
	}
	end := sp.begin("experiments.analyze")
	t1 := hyperprof.Table1(ch)
	f2 := hyperprof.Figure2(ch)
	cpu, remote, io := hyperprof.Figure2Overall(ch)
	f3 := hyperprof.Figure3(ch)
	f4 := hyperprof.Figure4(ch)
	f5 := hyperprof.Figure5(ch)
	f6 := hyperprof.Figure6(ch)
	end()

	end = sp.begin("experiments.export")
	var b bytes.Buffer
	fmt.Fprintln(&b, hyperprof.RenderTable1(t1))
	fmt.Fprintln(&b, hyperprof.RenderTables23())
	fmt.Fprintln(&b, hyperprof.RenderFigure2(f2))
	fmt.Fprintf(&b, "Across all platforms: %.0f%% CPU, %.0f%% remote work, %.0f%% IO (paper: 48/22/30)\n\n",
		cpu*100, remote*100, io*100)
	fmt.Fprintln(&b, hyperprof.RenderFigure3(f3))
	fmt.Fprintln(&b, hyperprof.RenderFigure4(f4))
	fmt.Fprintln(&b, hyperprof.RenderFigure5(f5))
	fmt.Fprintln(&b, hyperprof.RenderFigure6(f6))
	fmt.Fprintln(&b, hyperprof.RenderTables67(ch))
	end()

	counts := map[string]float64{}
	ops := ch.Cfg.Ops
	counts["workload.ops"] = float64(ops.Spanner + ops.BigTable + ops.BigQuery)
	for _, p := range hyperprof.Platforms() {
		counts["trace.traces"] += float64(len(ch.Traces[p]))
		counts["sim.virtual_s"] += ch.Elapsed[p].Seconds()
	}
	return studyOutput{export: b.Bytes(), counts: counts}, nil
}

// overloadConfig halves the default arrival horizon and scales the trigger
// with it, so the storm still starts at a quarter of the run, lasts a fifth
// of it, and clears before the final-quarter recovery window.
func overloadConfig(seed uint64) hyperprof.StudyConfig {
	cfg := sequential(hyperprof.DefaultOverloadStudyConfig(), seed)
	cfg.Load.Duration = time.Second
	cfg.Load.TriggerAt = 250 * time.Millisecond
	cfg.Load.TriggerDur = 200 * time.Millisecond
	return cfg
}

func runOverload(cfg hyperprof.StudyConfig, sp *spanRecorder) (studyOutput, error) {
	var o *hyperprof.OverloadStudy
	err := sp.do("experiments.run", func() (err error) {
		o, err = cfg.Overload()
		return err
	})
	if err != nil {
		return studyOutput{}, err
	}
	var export []byte
	if err := sp.do("experiments.export", func() (err error) {
		export, err = o.JSON()
		return err
	}); err != nil {
		return studyOutput{}, err
	}
	counts := map[string]float64{}
	var offered, done float64
	for _, r := range o.Rows {
		offered += float64(r.Offered)
		done += float64(r.Done)
		counts["workload.ops"] += float64(r.Done + r.Errors)
		counts["workload.errors"] += float64(r.Errors)
		counts["netsim.retries"] += float64(r.Retries)
		counts["netsim.sheds"] += float64(r.Sheds)
		counts["netsim.expired"] += float64(r.Expired)
		counts["netsim.breaker_opens"] += float64(r.BreakerOpens)
		counts["faults.applied"] += float64(r.FaultsApplied)
	}
	if offered > 0 {
		counts["netsim.goodput_frac"] = done / offered
	}
	return studyOutput{export: export, counts: counts}, nil
}

func fleetConfig(seed uint64) hyperprof.StudyConfig {
	cfg := sequential(hyperprof.DefaultFleetStudyConfig(), seed)
	cfg.Fleet.Servers = fleetServers
	cfg.Fleet.Users = fleetUsers
	cfg.Fleet.Ops = fleetOps
	return cfg
}

func runFleet(cfg hyperprof.StudyConfig, sp *spanRecorder) (studyOutput, error) {
	var st *hyperprof.FleetStudy
	err := sp.do("experiments.run", func() (err error) {
		st, err = cfg.FleetScale()
		return err
	})
	if err != nil {
		return studyOutput{}, err
	}
	var export []byte
	if err := sp.do("experiments.export", func() (err error) {
		export, err = hyperprof.MarshalFleet(st)
		return err
	}); err != nil {
		return studyOutput{}, err
	}
	counts := map[string]float64{}
	for _, r := range st.Rows {
		counts["workload.ops"] += float64(r.Ops)
		counts["workload.errors"] += float64(r.Errors)
		counts["sim.virtual_s"] += r.VirtualSeconds
		counts["stats.sketch_buckets"] += float64(r.SketchBuckets)
		counts["check.history_kept"] += float64(r.HistoryKept)
	}
	return studyOutput{export: export, counts: counts}, nil
}

func pipelineConfig(seed uint64) hyperprof.StudyConfig {
	cfg := sequential(hyperprof.DefaultPipelineStudyConfig(), seed)
	cfg.Pipe.IncludeBroken = true
	return cfg
}

// runPipeline runs the pipeline study with its broken-handoff arm. The
// verdict is part of the check: the honest arms must be clean and the
// broken arm convicted.
func runPipeline(cfg hyperprof.StudyConfig, sp *spanRecorder) (studyOutput, error) {
	var s *hyperprof.PipelineStudy
	err := sp.do("experiments.run", func() (err error) {
		s, err = cfg.Pipeline()
		return err
	})
	if err != nil {
		return studyOutput{}, err
	}
	var export []byte
	if err := sp.do("experiments.export", func() (err error) {
		export, err = s.JSON()
		return err
	}); err != nil {
		return studyOutput{}, err
	}
	if len(s.Violations) > 0 || len(s.BrokenViolations) == 0 {
		return studyOutput{}, fmt.Errorf("pipeline verdict: %d honest-arm violations, %d broken-arm convictions",
			len(s.Violations), len(s.BrokenViolations))
	}
	export = fmt.Appendf(export, "\nverdict: violations=%d convicted=%d\n", len(s.Violations), len(s.BrokenViolations))
	counts := map[string]float64{
		"trace.traces":     float64(len(s.Traces)),
		"check.violations": float64(len(s.Violations)),
		"check.convicted":  float64(len(s.BrokenViolations)),
	}
	for _, r := range s.Rows {
		counts["workload.ops"] += float64(r.Ops)
		counts["workload.errors"] += float64(r.Errors)
		counts["sim.virtual_s"] += r.Elapsed.Seconds()
		counts["bigquery.replays"] += float64(r.Replays)
		counts["bigquery.reputs"] += float64(r.RePuts)
		counts["bigquery.speculative"] += float64(r.Speculative)
		counts["check.deduped"] += float64(r.Deduped)
		counts["faults.applied"] += float64(r.FaultsApplied)
	}
	return studyOutput{export: export, counts: counts}, nil
}
